#include "serverless/serverless_ops.h"

#include <algorithm>

#include "core/parallel.h"
#include "storage/csv.h"

namespace modularis {

// ---------------------------------------------------------------------------
// LambdaExecutor
// ---------------------------------------------------------------------------

Status LambdaExecutor::Open(ExecContext* ctx) {
  BeginRun(ctx, config_.lambda.num_workers);
  serverless::LambdaRunReport report;
  Status st = serverless::LambdaRuntime::Run(
      config_.lambda, config_.store,
      [&](serverless::LambdaWorkerContext& wctx) -> Status {
        const int w = wctx.worker_id;
        ExecContext rctx;
        rctx.blob = wctx.s3;
        // Spilled blocking operators write through the worker's own blob
        // client path (S3 is the only storage a Lambda worker has).
        rctx.spill_store = wctx.s3->store();
        rctx.s3select = config_.s3select;
        rctx.lambda = &wctx;
        MODULARIS_RETURN_NOT_OK(RunRank(
            w, config_.plan_factory,
            config_.worker_params ? config_.worker_params(w) : Tuple{},
            "phase.worker_total", &rctx));
        rctx.stats->AddTime("s3.charged", wctx.s3->charged_seconds());
        rctx.stats->AddCounter("s3.bytes", wctx.s3->bytes_transferred());
        rctx.stats->AddCounter("s3.requests", wctx.s3->requests());
        return Status::OK();
      },
      &report);
  // Fleet-level "fault.injected.*" counters (spawn crashes plus every
  // worker's blob-client injections), exported once per run.
  return EndRun(std::move(st), report.stats);
}

// ---------------------------------------------------------------------------
// S3Exchange
// ---------------------------------------------------------------------------

Status S3Exchange::DoExchange() {
  if (ctx_->blob == nullptr || ctx_->lambda == nullptr) {
    return Status::Internal("S3Exchange requires a Lambda worker context");
  }
  timer_.Bind(ctx_->stats, opts_.timer_key);
  ScopedPhase phase(&timer_);
  const int me = ctx_->rank;
  const int world = ctx_->world;

  // Collect the per-receiver partitions (dense pid order from GroupBy /
  // Partition; missing pids become empty row groups).
  std::vector<RowVectorPtr> raw(world);
  Schema schema = KeyValueSchema();
  bool have_schema = false;
  Tuple t;
  while (child(0)->Next(&t)) {
    if (t.size() < 2 || !t[0].is_i64() || !t[1].is_collection()) {
      return Status::InvalidArgument(
          "S3Exchange expects ⟨pid, collection⟩ tuples, got " + t.ToString());
    }
    int64_t pid = t[0].i64();
    if (pid < 0 || pid >= world) {
      return Status::OutOfRange("S3Exchange: pid " + std::to_string(pid) +
                                " outside worker range");
    }
    const RowVectorPtr& data = t[1].collection();
    if (!have_schema) {
      schema = data->schema();
      have_schema = true;
    }
    raw[pid] = data;
  }
  MODULARIS_RETURN_NOT_OK(child(0)->status());

  // The row→column transposes (the wire serialization of this transport)
  // are independent per receiver: split them across the worker pool.
  // Slot-indexed results make the parallel form trivially byte-equal.
  size_t total_rows = 0;
  for (const RowVectorPtr& r : raw) {
    if (r != nullptr) total_rows += r->size();
  }
  const int workers =
      std::max(1, std::min(PlanWorkers(total_rows, ctx_->options), world));
  std::vector<ColumnTablePtr> parts(world);
  const std::vector<size_t> bounds =
      SplitRows(static_cast<size_t>(world), workers);
  MODULARIS_RETURN_NOT_OK(ParallelFor(ctx_, workers, [&](int w) -> Status {
    for (size_t i = bounds[w]; i < bounds[w + 1]; ++i) {
      parts[i] = raw[i] == nullptr ? ColumnTable::Make(schema)
                                   : ColumnTable::FromRowVector(*raw[i]);
    }
    return Status::OK();
  }));

  // Shared retry policy (core/fault.h); the injected Put failure fires
  // before the object lands, so the retry stores exactly one copy.
  auto put_object = [&](const std::string& key, const std::string& bytes) {
    return RetryCall(
        opts_.retry, ctx_->stats, "blob.put",
        [&] { return ctx_->blob->Put(key, bytes); }, ctx_->cancel);
  };

  if (opts_.write_combining) {
    // One object per sender; one row group per receiver (Lambada §4.4).
    std::string key = opts_.prefix + "/part-" + std::to_string(me) + ".mcf";
    MODULARIS_RETURN_NOT_OK(
        put_object(key, storage::WriteColumnFileFromParts(parts)));
  } else {
    // Ablation: one object per (sender, receiver) pair — W² requests.
    for (int r = 0; r < world; ++r) {
      std::string key = opts_.prefix + "/part-" + std::to_string(me) + "-" +
                        std::to_string(r) + ".mcf";
      MODULARIS_RETURN_NOT_OK(
          put_object(key, storage::WriteColumnFileFromParts({parts[r]})));
    }
  }

  // Stand-in for Lambada's storage-based synchronization: wait until all
  // senders have published their objects. Aborts (instead of waiting
  // forever) once a peer worker has died.
  MODULARIS_RETURN_NOT_OK(ctx_->lambda->barrier());

  // Emit the read set for this worker: its row group in every sender's
  // object.
  for (int sender = 0; sender < world; ++sender) {
    Tuple triple;
    if (opts_.write_combining) {
      triple.push_back(Item(opts_.prefix + "/part-" +
                            std::to_string(sender) + ".mcf"));
      triple.push_back(Item(static_cast<int64_t>(me)));
      triple.push_back(Item(static_cast<int64_t>(me)));
    } else {
      triple.push_back(Item(opts_.prefix + "/part-" +
                            std::to_string(sender) + "-" +
                            std::to_string(me) + ".mcf"));
      triple.push_back(Item(static_cast<int64_t>(0)));
      triple.push_back(Item(static_cast<int64_t>(0)));
    }
    out_.push_back(std::move(triple));
  }
  return Status::OK();
}

bool S3Exchange::Next(Tuple* out) {
  if (!exchanged_) {
    Status st = DoExchange();
    if (!st.ok()) return Fail(st);
    exchanged_ = true;
  }
  if (batch_reader_ != nullptr) {
    // A NextBatch() pull left a triple partially expanded; hand the
    // unread row-group remainder back as a path triple so no rows are
    // lost when the consumer switches protocols mid-stream.
    const bool remainder = batch_rg_ <= batch_last_rg_ &&
                           batch_rg_ < batch_reader_->num_row_groups();
    const size_t first = batch_rg_;
    const size_t last = batch_last_rg_;
    std::string path = std::move(batch_path_);
    batch_reader_.reset();
    batch_source_.reset();
    if (remainder) {
      out->clear();
      out->push_back(Item(std::move(path)));
      out->push_back(Item(static_cast<int64_t>(first)));
      out->push_back(Item(static_cast<int64_t>(last)));
      return true;
    }
  }
  if (emit_pos_ >= out_.size()) return false;
  *out = out_[emit_pos_++];
  return true;
}

bool S3Exchange::NextBatch(RowBatch* out) {
  if (!exchanged_) {
    Status st = DoExchange();
    if (!st.ok()) return Fail(st);
    exchanged_ = true;
  }
  out->Clear();
  while (true) {
    if (batch_reader_ != nullptr) {
      while (batch_rg_ <= batch_last_rg_ &&
             batch_rg_ < batch_reader_->num_row_groups()) {
        size_t rg = batch_rg_++;
        timer_.Bind(ctx_->stats, opts_.timer_key);
        ScopedPhase phase(&timer_);
        auto table = batch_reader_->ReadRowGroup(rg, {});
        if (!table.ok()) return Fail(table.status());
        if ((*table)->num_rows() == 0) continue;
        out->Borrow((*table)->ToRowVector());
        out->MarkReleased();  // fresh vector per row group: stealable
        return true;
      }
      batch_reader_.reset();
      batch_source_.reset();
    }
    if (emit_pos_ >= out_.size()) return false;
    const Tuple& triple = out_[emit_pos_++];
    timer_.Bind(ctx_->stats, opts_.timer_key);
    ScopedPhase phase(&timer_);
    batch_path_ = triple[0].str();
    batch_source_ = std::make_shared<storage::BlobReader>(
        ctx_->blob, batch_path_, opts_.retry, ctx_->stats, ctx_->cancel);
    auto reader = storage::ColumnFileReader::Open(batch_source_);
    if (!reader.ok()) return Fail(reader.status());
    batch_reader_ = reader.TakeValue();
    batch_rg_ = static_cast<size_t>(triple[1].i64());
    batch_last_rg_ = static_cast<size_t>(triple[2].i64());
  }
}

// ---------------------------------------------------------------------------
// ColumnFileScan
// ---------------------------------------------------------------------------

bool ColumnFileScan::Next(Tuple* out) {
  while (true) {
    if (reader_ != nullptr) {
      while (current_rg_ <= last_rg_ &&
             current_rg_ < reader_->num_row_groups()) {
        size_t rg = current_rg_++;
        bool keep = true;
        for (const Range& r : opts_.ranges) {
          if (!reader_->MayContain(rg, r.col, r.lo, r.hi)) {
            keep = false;
            break;
          }
        }
        if (!keep) {
          if (ctx_->stats != nullptr) {
            ctx_->stats->AddCounter("scan.row_groups_pruned", 1);
          }
          continue;
        }
        timer_.Bind(ctx_->stats, opts_.timer_key);
        ScopedPhase phase(&timer_);
        auto table = reader_->ReadRowGroup(rg, opts_.projection);
        if (!table.ok()) return Fail(table.status());
        out->clear();
        out->push_back(Item(table.TakeValue()));
        return true;
      }
      reader_.reset();
    }
    Tuple t;
    if (!child(0)->Next(&t)) return ChildEnd(child(0));
    if (!t[0].is_str()) {
      return Fail(Status::InvalidArgument(
          "ColumnFileScan expects ⟨path⟩ tuples, got " + t.ToString()));
    }
    if (ctx_->blob == nullptr) {
      return Fail(Status::Internal("ColumnFileScan: no storage client"));
    }
    timer_.Bind(ctx_->stats, opts_.timer_key);
    ScopedPhase phase(&timer_);
    source_ = std::make_shared<storage::BlobReader>(
        ctx_->blob, t[0].str(), opts_.retry, ctx_->stats, ctx_->cancel);
    auto reader = storage::ColumnFileReader::Open(source_);
    if (!reader.ok()) return Fail(reader.status());
    reader_ = reader.TakeValue();
    if (t.size() >= 3 && t[1].is_i64() && t[2].is_i64()) {
      current_rg_ = static_cast<size_t>(t[1].i64());
      last_rg_ = static_cast<size_t>(t[2].i64());
    } else {
      current_rg_ = 0;
      last_rg_ = reader_->num_row_groups() == 0
                     ? 0
                     : reader_->num_row_groups() - 1;
    }
  }
}

// ---------------------------------------------------------------------------
// MaterializeColumnFile
// ---------------------------------------------------------------------------

bool MaterializeColumnFile::Next(Tuple* out) {
  if (done_) return false;
  ColumnTablePtr table = ColumnTable::Make(schema_);
  Tuple t;
  while (child(0)->Next(&t)) {
    const Item& item = t[0];
    if (item.is_row()) {
      table->AppendRow(item.row());
    } else if (item.is_collection()) {
      const RowVectorPtr& rows = item.collection();
      for (size_t i = 0; i < rows->size(); ++i) table->AppendRow(rows->row(i));
    } else {
      return Fail(Status::InvalidArgument(
          "MaterializeColumnFile expects rows or collections, got " +
          item.ToString()));
    }
  }
  if (!child(0)->status().ok()) return Fail(child(0)->status());
  if (ctx_->blob == nullptr) {
    return Fail(Status::Internal("MaterializeColumnFile: no storage client"));
  }
  std::string bytes = storage::WriteColumnFile(*table);
  Status put_st = RetryCall(
      retry_, ctx_->stats, "blob.put",
      [&] { return ctx_->blob->Put(key_, bytes); }, ctx_->cancel);
  if (!put_st.ok()) return Fail(std::move(put_st));
  done_ = true;
  out->clear();
  out->push_back(Item(key_));
  return true;
}

// ---------------------------------------------------------------------------
// S3SelectRequest
// ---------------------------------------------------------------------------

bool S3SelectRequest::Next(Tuple* out) {
  Tuple t;
  if (!child(0)->Next(&t)) return ChildEnd(child(0));
  if (!t[0].is_str()) {
    return Fail(Status::InvalidArgument(
        "S3SelectRequest expects ⟨path⟩ tuples, got " + t.ToString()));
  }
  if (ctx_->s3select == nullptr) {
    return Fail(Status::Internal("S3SelectRequest: no S3Select engine"));
  }
  timer_.Bind(ctx_->stats, opts_.timer_key);
  ScopedPhase phase(&timer_);
  auto csv = ctx_->s3select->Select(t[0].str(), opts_.object_schema,
                                    opts_.projection, opts_.predicate,
                                    ctx_->blob);
  if (!csv.ok()) return Fail(csv.status());
  // Parse the CSV response into the columnar (Arrow-table analog) form.
  auto table = storage::ReadCsv(csv.value(), result_schema());
  if (!table.ok()) return Fail(table.status());
  out->clear();
  out->push_back(Item(table.TakeValue()));
  return true;
}

}  // namespace modularis
