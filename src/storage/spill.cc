#include "storage/spill.h"

#include <atomic>
#include <cstring>

#include "core/fault.h"
#include "core/memory.h"

namespace modularis::storage {

namespace {
/// Process-wide uniquifier: cloned operators (parallel NestedMap workers
/// run one BuildProbe clone per worker, concurrently) must never collide
/// on a prefix. Uniqueness is all that matters — spill objects are
/// private scratch, deleted before the operator closes, so the names
/// need not be deterministic.
std::atomic<uint64_t> g_spill_seq{0};
}  // namespace

SpillSet::SpillSet(ExecContext* ctx, const char* op_tag) : ctx_(ctx) {
  BlobClientOptions opts = BlobClientOptions::Unthrottled();
  opts.profile = "spill";
  opts.fault = ctx->options.spill_fault;
  client_ = std::make_unique<BlobClient>(ctx->spill_store, opts, ctx->rank);
  prefix_ = "spill/" + std::string(op_tag) + "-r" +
            std::to_string(ctx->rank) + "-" +
            std::to_string(g_spill_seq.fetch_add(1)) + "/";
}

SpillSet::~SpillSet() { DeleteAll(); }

std::string SpillSet::ChunkKey(int pass, int pid, int chunk) const {
  return prefix_ + "p" + std::to_string(pass) + "/d" + std::to_string(pid) +
         "/c" + std::to_string(chunk);
}

Status SpillSet::WriteChunk(int pass, int pid, const uint8_t* rows, size_t n,
                            uint32_t stride, const uint32_t* idx) {
  if (n == 0) return Status::OK();
  int& count = chunk_counts_[{pass, pid}];
  const std::string key = ChunkKey(pass, pid, count);

  std::string payload;
  const uint32_t n32 = static_cast<uint32_t>(n);
  payload.reserve(sizeof(n32) + n * stride + n * sizeof(uint32_t));
  payload.append(reinterpret_cast<const char*>(&n32), sizeof(n32));
  payload.append(reinterpret_cast<const char*>(rows), n * stride);
  payload.append(reinterpret_cast<const char*>(idx), n * sizeof(uint32_t));

  Status st = RetryCall(
      ctx_->options.retry, ctx_->stats, "spill.put",
      [&] { return client_->Put(key, payload); }, ctx_->cancel);
  if (!st.ok()) return st;
  ++count;
  bytes_written_ += static_cast<int64_t>(payload.size());
  if (ctx_->stats != nullptr) {
    ctx_->stats->AddCounter("spill.bytes",
                            static_cast<int64_t>(payload.size()));
    ctx_->stats->AddCounter("spill.chunks", 1);
  }
  return Status::OK();
}

int SpillSet::NumChunks(int pass, int pid) const {
  auto it = chunk_counts_.find({pass, pid});
  return it == chunk_counts_.end() ? 0 : it->second;
}

Status SpillSet::ReadChunk(int pass, int pid, int chunk, RowVector* rows,
                           std::vector<uint32_t>* idx) {
  const std::string key = ChunkKey(pass, pid, chunk);
  auto blob = RetryCall(
      ctx_->options.retry, ctx_->stats, "spill.get",
      [&] { return client_->Get(key); }, ctx_->cancel);
  if (!blob.ok()) return blob.status();
  const std::string& payload = *blob;

  uint32_t n = 0;
  if (payload.size() < sizeof(n)) {
    return Status::Internal("spill chunk " + key + " truncated header");
  }
  std::memcpy(&n, payload.data(), sizeof(n));
  // The row stride is what makes the payload size checkable, so every
  // read decodes rows: nothing is copied out of a blob whose size
  // disagrees with its count.
  const size_t row_bytes = static_cast<size_t>(n) * rows->row_size();
  const size_t idx_bytes = static_cast<size_t>(n) * sizeof(uint32_t);
  if (payload.size() != sizeof(n) + row_bytes + idx_bytes) {
    return Status::Internal("spill chunk " + key + " size mismatch");
  }
  const uint8_t* p = reinterpret_cast<const uint8_t*>(payload.data()) +
                     sizeof(n);
  rows->AppendRawBatch(p, n);
  if (idx != nullptr) {
    const size_t old = idx->size();
    idx->resize(old + n);
    std::memcpy(idx->data() + old, p + row_bytes, idx_bytes);
  }
  return Status::OK();
}

void SpillSet::DeletePartition(int pass, int pid) {
  auto it = chunk_counts_.find({pass, pid});
  if (it == chunk_counts_.end()) return;
  for (int c = 0; c < it->second; ++c) {
    client_->store()->Delete(ChunkKey(pass, pid, c));
  }
  chunk_counts_.erase(it);
}

void SpillSet::DeleteAll() {
  for (const auto& [key, count] : chunk_counts_) {
    for (int c = 0; c < count; ++c) {
      client_->store()->Delete(ChunkKey(key.first, key.second, c));
    }
  }
  chunk_counts_.clear();
}

Result<std::unique_ptr<SpillSet>> AdmitSpill(ExecContext* ctx, const char* op,
                                             const char* tag, uint32_t stride,
                                             const std::string& what) {
  // Counted whether the spill fallback is viable (graceful degradation)
  // or not (fail fast below).
  if (ctx->budget != nullptr) ctx->budget->NoteDenial();
  const size_t mem_limit = ctx->options.memory_limit_bytes;
  const size_t quota = SpillQuotaBytes(mem_limit);
  if (quota < stride) {
    return Status::ResourceExhausted(
        std::string(op) + ": memory_limit_bytes=" + std::to_string(mem_limit) +
        " cannot hold one " + std::to_string(stride) +
        "-byte row in the spill quota (" + std::to_string(quota) + " bytes)");
  }
  if (ctx->spill_store == nullptr) {
    return Status::ResourceExhausted(
        std::string(op) + ": " + what + " memory_limit_bytes=" +
        std::to_string(mem_limit) + " and no spill store is configured");
  }
  if (ctx->stats != nullptr) {
    ctx->stats->AddCounter("spill.ops." + std::string(op), 1);
  }
  return std::make_unique<SpillSet>(ctx, tag);
}

Status SpillWriter::Write(int pid) {
  RowRun& stage = stages_[pid];
  MODULARIS_RETURN_NOT_OK(spill_->WriteChunk(pass_, pid, stage.rows->data(),
                                             stage.idx.size(),
                                             schema_.row_size(),
                                             stage.idx.data()));
  stage.rows->Clear();
  stage.idx.clear();
  return Status::OK();
}

Status SpillWriter::Flush() {
  for (size_t pid = 0; pid < stages_.size(); ++pid) {
    if (!stages_[pid].idx.empty()) {
      MODULARIS_RETURN_NOT_OK(Write(static_cast<int>(pid)));
    }
  }
  stages_.clear();  // frees the staging buffers
  return Status::OK();
}

}  // namespace modularis::storage
