#include "mpi/mpi_ops.h"

#include <algorithm>

#include "core/parallel.h"
#include "suboperators/partition_ops.h"
#include "suboperators/scan_ops.h"

namespace modularis {

Schema CompressedSchema() {
  return Schema({Field::I64("word")});
}

// ---------------------------------------------------------------------------
// MpiExecutor
// ---------------------------------------------------------------------------

Status MpiExecutor::Open(ExecContext* ctx) {
  BeginRun(ctx, config_.world_size);
  mpi::MpiRunReport report;
  Status st = mpi::MpiRuntime::Run(
      config_.world_size, config_.fabric,
      [&](mpi::Communicator& comm) -> Status {
        const int r = comm.rank();
        ExecContext rctx;
        rctx.comm = &comm;
        rctx.spill_store = config_.spill_store;
        MODULARIS_RETURN_NOT_OK(RunRank(
            r, config_.plan_factory,
            config_.rank_params ? config_.rank_params(r) : Tuple{},
            "phase.rank_total", &rctx));

        // Snapshot fabric accounting before the world is torn down.
        const double charged = comm.fabric().charged_seconds(r);
        const double stall = comm.fabric().stall_seconds(r);
        rctx.stats->AddCounter("net.bytes_sent", comm.fabric().bytes_sent(r));
        rctx.stats->AddCounter("net.msgs_sent", comm.fabric().msgs_sent(r));
        rctx.stats->AddTime("net.charged_seconds", charged);
        rctx.stats->AddTime("net.stall_seconds", stall);
        // Fraction of modelled wire time hidden behind compute: 1 when
        // every Put drained before Flush, 0 when the rank waited out the
        // full transfer time. Zero traffic counts as fully overlapped.
        double overlap =
            charged > 0 ? 1.0 - std::min(stall / charged, 1.0) : 1.0;
        rctx.stats->AddTime("exchange.overlap_ratio", overlap);
        return Status::OK();
      },
      &report);
  // Fabric-level "fault.injected.*" counters: one shared injector, so
  // they are exported once per run, not per rank.
  return EndRun(std::move(st), report.stats);
}

// ---------------------------------------------------------------------------
// MpiHistogram
// ---------------------------------------------------------------------------

bool MpiHistogram::Next(Tuple* out) {
  if (done_) return false;
  Tuple t;
  if (!child(0)->Next(&t)) {
    if (!child(0)->status().ok()) return Fail(child(0)->status());
    return Fail(Status::InvalidArgument(
        "MpiHistogram: upstream yielded no local histogram"));
  }
  const RowVectorPtr& local = t[0].collection();
  std::vector<int64_t> counts(local->size());
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = local->row(i).GetInt64(0);
  }
  {
    timer_.Bind(ctx_->stats, timer_key_);
    ScopedPhase phase(&timer_);
    Status st = ctx_->comm->AllreduceSum(&counts);
    if (!st.ok()) return Fail(std::move(st));
  }
  RowVectorPtr global = RowVector::Make(HistogramSchema());
  global->Reserve(counts.size());
  for (int64_t c : counts) global->AppendRow().SetInt64(0, c);
  done_ = true;
  out->clear();
  out->push_back(Item(std::move(global)));
  return true;
}

// ---------------------------------------------------------------------------
// MpiExchange
// ---------------------------------------------------------------------------

namespace {

std::vector<int64_t> ReadHistogram(const RowVector& hist) {
  std::vector<int64_t> counts(hist.size());
  for (size_t i = 0; i < hist.size(); ++i) {
    counts[i] = hist.row(i).GetInt64(0);
  }
  return counts;
}

}  // namespace

Status MpiExchange::DoExchange() {
  mpi::Communicator* comm = ctx_->comm;
  if (comm == nullptr) {
    return Status::Internal("MpiExchange requires an MPI communicator");
  }
  const int world = comm->size();
  const int me = comm->rank();
  const int fanout = opts_.spec.fanout();

  // Gather the input (the pipeline has materialized it) into one packed
  // span: zero-copy when the upstream hands a single durable collection,
  // bulk-copied in stream order otherwise. A child that is not a record
  // stream (a plan input holding whole collections) is pulled through the
  // tuple adapter.
  RowVectorPtr input = RowVector::Make(schema_);
  MODULARIS_RETURN_NOT_OK(DrainRecordStream(
      child(0), &input,
      child(0)->ProducesRecordStream() ? Pull::kBatch : Pull::kTuples));

  // Histograms.
  Tuple hist_tuple;
  if (!child(1)->Next(&hist_tuple)) {
    MODULARIS_RETURN_NOT_OK(child(1)->status());
    return Status::InvalidArgument("MpiExchange: missing local histogram");
  }
  std::vector<int64_t> local_counts = ReadHistogram(*hist_tuple[0].collection());
  if (!child(2)->Next(&hist_tuple)) {
    MODULARIS_RETURN_NOT_OK(child(2)->status());
    return Status::InvalidArgument("MpiExchange: missing global histogram");
  }
  std::vector<int64_t> global_counts =
      ReadHistogram(*hist_tuple[0].collection());
  if (static_cast<int>(local_counts.size()) != fanout ||
      static_cast<int>(global_counts.size()) != fanout) {
    return Status::InvalidArgument("MpiExchange: histogram/fanout mismatch");
  }

  const Schema& in_schema = schema_;
  if (opts_.compress) {
    if (in_schema.num_fields() != 2 ||
        in_schema.field(0).type != AtomType::kInt64 ||
        in_schema.field(1).type != AtomType::kInt64 ||
        opts_.spec.hash != RadixHash::kIdentity || opts_.spec.shift != 0) {
      return Status::InvalidArgument(
          "MpiExchange: compression requires a ⟨i64 key, i64 value⟩ "
          "workload with identity radix hashing");
    }
    if (2 * opts_.domain_bits - opts_.spec.bits > 64) {
      return Status::InvalidArgument(
          "MpiExchange: 2·P − F exceeds 64 bits; cannot compress");
    }
  }
  const Schema out_schema =
      opts_.compress ? CompressedSchema() : in_schema;
  const uint32_t out_row = out_schema.row_size();

  timer_.Bind(ctx_->stats, opts_.timer_key);
  ScopedPhase phase(&timer_);

  // Exclusive write offsets from the allgathered local histograms.
  std::vector<std::vector<int64_t>> all_local;
  MODULARIS_RETURN_NOT_OK(comm->AllgatherI64(local_counts, &all_local));

  // Window layout at each owner: its partitions in ascending pid order.
  std::vector<int64_t> partition_base(fanout, 0);  // row offset at owner
  std::vector<int64_t> owner_rows(world, 0);
  for (int p = 0; p < fanout; ++p) {
    int owner = p % world;
    partition_base[p] = owner_rows[owner];
    owner_rows[owner] += global_counts[p];
  }

  // My starting write offset inside each partition's region.
  std::vector<size_t> write_offset(fanout);  // in rows, absolute in window
  for (int p = 0; p < fanout; ++p) {
    int64_t before_me = 0;
    for (int r = 0; r < me; ++r) before_me += all_local[r][p];
    write_offset[p] = static_cast<size_t>(partition_base[p] + before_me);
  }

  MODULARIS_ASSIGN_OR_RETURN(
      net::WindowId window,
      comm->WinAllocate(static_cast<size_t>(owner_rows[me]) * out_row));

  // Tracking-only budget accounting (docs/DESIGN-memory.md): the window,
  // wire staging and materialized partitions are transient per-exchange
  // footprint. They show up in mem.peak_bytes but never fail admission —
  // the exchange has no spill path to degrade to.
  ScopedCharge stage_charge(ctx_->budget);
  stage_charge.Add(static_cast<size_t>(owner_rows[me]) * out_row);

  // The ranged scatter (docs/DESIGN-exchange.md): the local histogram is
  // its totals (one worker counts nothing; more check their counts against
  // it, and every flush is bounds-checked, because a mismatch would
  // corrupt a peer's window), and each (worker, partition) region of the
  // owner's window starts where the input order puts it. Every full
  // write-combining buffer ships as one async Put, so wire traffic starts
  // while the scatter is still running.
  const uint32_t in_row = in_schema.row_size();
  RangedScatter scatter(ctx_, "MpiExchange", input->data(), input->size(),
                        in_row,
                        ScatterRoute::Radix(opts_.spec, in_schema,
                                            opts_.key_col),
                        PlanWorkers(input->size(), ctx_->options));
  MODULARIS_RETURN_NOT_OK(scatter.Count(&local_counts));

  // Serial-wire ablation staging (opts_.serial_wire): the scatter lands in
  // a local buffer laid out by local prefix offsets and ships only after
  // partitioning completes — no overlap, the baseline the stall gate
  // compares against.
  std::vector<size_t> local_base(fanout, 0);
  size_t local_total = 0;
  for (int p = 0; p < fanout; ++p) {
    local_base[p] = local_total;
    local_total += static_cast<size_t>(local_counts[p]);
  }
  std::vector<uint8_t> wire_stage;
  if (opts_.serial_wire) {
    wire_stage.resize(local_total * out_row);
    stage_charge.Add(wire_stage.size());
  }

  // The write-combining budget is shared across the workers, so the
  // staging footprint does not grow with them.
  const size_t buf_rows = std::max<size_t>(
      4, opts_.buffer_bytes / static_cast<size_t>(scatter.ranges()) / out_row);
  // Compression packs each row into its wire word as it is staged.
  const ScatterPacking packing{opts_.spec.bits, opts_.domain_bits,
                               opts_.compress ? in_schema.offset(1) : 0};
  auto sink = [&](const ScatterFlush& f) -> Status {
    if (opts_.serial_wire) {
      std::memcpy(wire_stage.data() + f.at * out_row, f.rows,
                  f.count * out_row);
      return Status::OK();
    }
    // An injected Put failure fires before any byte lands, so the retry
    // writes the same exclusive region exactly once.
    return RetryCall(
        ctx_->options.retry, ctx_->stats, "fabric.put",
        [&] {
          return comm->WinPut(f.dest % world, window, f.at * out_row,
                              f.rows, f.count * out_row);
        },
        ctx_->cancel);
  };
  MODULARIS_RETURN_NOT_OK(
      scatter.Scatter(opts_.serial_wire ? local_base : write_offset, buf_rows,
                      /*track_index=*/false, sink,
                      opts_.compress ? &packing : nullptr));

  if (opts_.serial_wire) {
    // Partition-then-send: every byte ships only now, after the scatter —
    // the whole wire time serializes behind compute and surfaces as
    // Flush stall.
    for (int p = 0; p < fanout; ++p) {
      if (local_counts[p] == 0) continue;
      MODULARIS_RETURN_NOT_OK(RetryCall(
          ctx_->options.retry, ctx_->stats, "fabric.put",
          [&] {
            return comm->WinPut(
                p % world, window, write_offset[p] * out_row,
                wire_stage.data() + local_base[p] * out_row,
                static_cast<size_t>(local_counts[p]) * out_row);
          },
          ctx_->cancel));
    }
  }
  MODULARIS_RETURN_NOT_OK(
      RetryCall(ctx_->options.retry, ctx_->stats, "fabric.flush",
                [&] { return comm->WinFlush(); }, ctx_->cancel));
  // All one-sided writes of all ranks have landed.
  MODULARIS_RETURN_NOT_OK(comm->Barrier());

  // Materialize owned partitions out of the window (the paper's extension
  // of the original algorithm, §4.1.2) straight into batch-served
  // RowVectors, split across the pool — partitions are disjoint window
  // regions, so the copies are embarrassingly parallel.
  const uint8_t* win = comm->WinData(window);
  std::vector<int> owned;
  for (int p = me; p < fanout; p += world) owned.push_back(p);
  out_parts_.resize(owned.size());
  const int mat_workers = std::max(
      1, std::min<int>(PlanWorkers(static_cast<size_t>(owner_rows[me]),
                                   ctx_->options),
                       static_cast<int>(owned.size())));
  const std::vector<size_t> obounds = SplitRows(owned.size(), mat_workers);
  MODULARIS_RETURN_NOT_OK(ParallelFor(ctx_, mat_workers, [&](int w) -> Status {
    for (size_t i = obounds[w]; i < obounds[w + 1]; ++i) {
      const int p = owned[i];
      RowVectorPtr part = RowVector::Make(out_schema);
      part->AppendRawBatch(
          win + static_cast<size_t>(partition_base[p]) * out_row,
          static_cast<size_t>(global_counts[p]));
      out_parts_[i] = {p, std::move(part)};
    }
    return Status::OK();
  }));
  stage_charge.Add(static_cast<size_t>(owner_rows[me]) * out_row);
  phase.Stop();
  return comm->WinFree(window);
}

Status MpiBroadcast::DoBroadcast() {
  if (ctx_->comm == nullptr) {
    return Status::Internal("MpiBroadcast requires a communicator");
  }
  // The packed allgather payload is assembled from whole batches
  // (zero-copy when the upstream hands one durable collection).
  RowVectorPtr local = RowVector::Make(schema_);
  MODULARIS_RETURN_NOT_OK(DrainRecordStream(
      child(0), &local,
      child(0)->ProducesRecordStream() ? Pull::kBatch : Pull::kTuples));

  timer_.Bind(ctx_->stats, timer_key_);
  ScopedPhase phase(&timer_);
  std::vector<uint8_t> bytes(local->data(),
                             local->data() + local->byte_size());
  std::vector<std::vector<uint8_t>> all;
  MODULARIS_RETURN_NOT_OK(ctx_->comm->AllgatherBytes(bytes, &all));
  merged_ = RowVector::Make(schema_);
  for (const auto& part : all) {
    merged_->AppendRawBatch(part.data(), part.size() / schema_.row_size());
  }
  return Status::OK();
}

bool MpiBroadcast::Next(Tuple* out) {
  if (done_) return false;
  Status st = DoBroadcast();
  if (!st.ok()) return Fail(std::move(st));
  done_ = true;
  out->clear();
  out->push_back(Item(merged_));
  return true;
}

bool MpiBroadcast::NextBatch(RowBatch* out) {
  out->Clear();
  if (done_) return false;
  Status st = DoBroadcast();
  if (!st.ok()) return Fail(std::move(st));
  done_ = true;
  if (merged_->empty()) return false;
  out->Borrow(merged_);
  out->MarkDurable();  // kept alive and unmutated for the whole Open cycle
  return true;
}

bool MpiExchange::Next(Tuple* out) {
  if (!exchanged_) {
    Status st = DoExchange();
    if (!st.ok()) return Fail(st);
    exchanged_ = true;
  }
  if (emit_pos_ >= out_parts_.size()) return false;
  out->clear();
  out->push_back(Item(out_parts_[emit_pos_].first));
  out->push_back(Item(out_parts_[emit_pos_].second));
  ++emit_pos_;
  return true;
}

bool MpiExchange::NextBatch(RowBatch* out) {
  out->Clear();
  if (!exchanged_) {
    Status st = DoExchange();
    if (!st.ok()) return Fail(st);
    exchanged_ = true;
  }
  while (emit_pos_ < out_parts_.size()) {
    const RowVectorPtr& part = out_parts_[emit_pos_].second;
    ++emit_pos_;
    if (part->empty()) continue;
    out->Borrow(part);
    out->MarkDurable();  // owned partitions live for the whole Open cycle
    return true;
  }
  return false;
}

}  // namespace modularis
