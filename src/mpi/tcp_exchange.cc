#include "mpi/tcp_exchange.h"

#include <algorithm>

#include "core/parallel.h"
#include "suboperators/partition_ops.h"

namespace modularis {

Status TcpExchange::DoExchange() {
  mpi::Communicator* comm = ctx_->comm;
  if (comm == nullptr) {
    return Status::Internal("TcpExchange requires a communicator");
  }
  const int world = comm->size();
  const int me = comm->rank();

  // Drain the input into one packed span (zero-copy when the upstream
  // hands a single durable collection). A child that is not a record
  // stream (a plan input holding whole collections) is pulled through the
  // tuple adapter.
  const Schema& schema = schema_;
  RowVectorPtr input = RowVector::Make(schema);
  MODULARIS_RETURN_NOT_OK(DrainRecordStream(
      child(0), &input,
      child(0)->ProducesRecordStream() ? Pull::kBatch : Pull::kTuples));
  const size_t n = input->size();
  const uint32_t stride = schema.row_size();

  timer_.Bind(ctx_->stats, opts_.timer_key);
  ScopedPhase phase(&timer_);

  // Route into one flat wire buffer ordered by destination rank; rows of a
  // destination replay input order, so N-thread routing is byte-equal to
  // serial per peer (docs/DESIGN-exchange.md).
  RowVectorPtr wire = RowVector::Make(schema);
  std::vector<size_t> dest_base(world + 1, 0);
  const int workers = PlanWorkers(n, ctx_->options);
  auto dest_of = [&](const uint8_t* p) -> uint32_t {
    uint64_t h = MixHash64(static_cast<uint64_t>(
        KeyAt(RowRef(p, &schema), opts_.key_col)));
    return static_cast<uint32_t>(h % world);
  };
  if (workers > 1 && world <= 256) {
    // Two-phase count→write-combining scatter over static worker ranges:
    // the routing hash is computed once into a pid array, per-(worker,
    // destination) offsets replay the input order, and every worker
    // scatters through the shared WC kernel into its exclusive region.
    wire->ResizeRowsUninitialized(n);
    const std::vector<size_t> bounds = SplitRows(n, workers);
    std::vector<uint8_t> pids(n);
    std::vector<std::vector<size_t>> worker_counts(
        workers, std::vector<size_t>(world, 0));
    MODULARIS_RETURN_NOT_OK(ParallelFor(ctx_, workers, [&](int w) -> Status {
      const uint8_t* p = input->data() + bounds[w] * stride;
      for (size_t i = bounds[w]; i < bounds[w + 1]; ++i, p += stride) {
        const uint32_t d = dest_of(p);
        pids[i] = static_cast<uint8_t>(d);
        ++worker_counts[w][d];
      }
      return Status::OK();
    }));
    for (int r = 0; r < world; ++r) {
      size_t total = 0;
      for (int w = 0; w < workers; ++w) total += worker_counts[w][r];
      dest_base[r + 1] = dest_base[r] + total;
    }
    std::vector<std::vector<size_t>> offsets(
        workers, std::vector<size_t>(world, 0));
    for (int r = 0; r < world; ++r) {
      size_t off = dest_base[r];
      for (int w = 0; w < workers; ++w) {
        offsets[w][r] = off;
        off += worker_counts[w][r];
      }
    }
    MODULARIS_RETURN_NOT_OK(ParallelFor(ctx_, workers, [&](int w) -> Status {
      ScatterSpanByPidWc(input->data() + bounds[w] * stride,
                         bounds[w + 1] - bounds[w], stride,
                         pids.data() + bounds[w], world, bounds[w],
                         wire->mutable_row(0), /*dst_idx=*/nullptr,
                         &offsets[w]);
      return Status::OK();
    }));
  } else if (n > 0) {
    if (workers > 1) {
      // pids are staged as uint8_t, so a >256-rank world routes serially.
      NoteSerialFallback(ctx_, "TcpExchange");
    }
    wire->ResizeRowsUninitialized(n);
    std::vector<size_t> counts(world, 0);
    const uint8_t* p = input->data();
    for (size_t i = 0; i < n; ++i, p += stride) ++counts[dest_of(p)];
    for (int r = 0; r < world; ++r) dest_base[r + 1] = dest_base[r] + counts[r];
    std::vector<size_t> cursor(dest_base.begin(), dest_base.end() - 1);
    p = input->data();
    for (size_t i = 0; i < n; ++i, p += stride) {
      std::memcpy(wire->mutable_row(cursor[dest_of(p)]++), p, stride);
    }
  }

  // Two-sided push of packed RowVector segments: send each peer its
  // contiguous slice of the wire buffer, then collect world-1 messages
  // addressed to us. Sends block for the modelled wire time — TCP gives
  // none of the RDMA overlap.
  mine_ = RowVector::Make(schema);
  if (dest_base[me + 1] > dest_base[me]) {
    mine_->AppendRawBatch(wire->data() + dest_base[me] * stride,
                          dest_base[me + 1] - dest_base[me]);
  }
  for (int peer = 0; peer < world; ++peer) {
    if (peer == me) continue;
    const size_t rows = dest_base[peer + 1] - dest_base[peer];
    // The payload is rebuilt from the wire buffer inside the retried call
    // (Send consumes it by value); an injected failure fires before the
    // enqueue, so the retry delivers exactly one copy.
    MODULARIS_RETURN_NOT_OK(RetryCall(
        ctx_->options.retry, ctx_->stats, "fabric.send",
        [&] {
          std::vector<uint8_t> payload(rows * stride);
          if (rows > 0) {
            std::memcpy(payload.data(),
                        wire->data() + dest_base[peer] * stride,
                        rows * stride);
          }
          return comm->fabric().Send(me, peer, std::move(payload));
        },
        ctx_->cancel));
  }
  for (int peer = 0; peer < world; ++peer) {
    if (peer == me) continue;
    std::vector<uint8_t> payload;
    MODULARIS_RETURN_NOT_OK(RetryCall(
        ctx_->options.retry, ctx_->stats, "fabric.recv",
        [&] { return comm->fabric().Recv(me, peer, &payload, ctx_->cancel); },
        ctx_->cancel));
    if (payload.size() % stride != 0) {
      return Status::InvalidArgument(
          "TcpExchange: segment of " + std::to_string(payload.size()) +
          " bytes from rank " + std::to_string(peer) +
          " is not a whole number of " + std::to_string(stride) +
          "-byte rows");
    }
    mine_->AppendRawBatch(payload.data(), payload.size() / stride);
  }
  phase.Stop();
  exchanged_ = true;
  return Status::OK();
}

bool TcpExchange::Next(Tuple* out) {
  if (done_) return false;
  if (!exchanged_) {
    Status st = DoExchange();
    if (!st.ok()) return Fail(std::move(st));
  }
  done_ = true;
  const int64_t pid = ctx_->comm->rank();
  out->clear();
  out->push_back(Item(pid));
  out->push_back(Item(mine_));
  return true;
}

bool TcpExchange::NextBatch(RowBatch* out) {
  out->Clear();
  if (done_) return false;
  if (!exchanged_) {
    Status st = DoExchange();
    if (!st.ok()) return Fail(std::move(st));
  }
  done_ = true;
  if (mine_->empty()) return false;
  out->Borrow(mine_);
  out->MarkDurable();  // kept alive and unmutated for the whole Open cycle
  return true;
}

}  // namespace modularis
