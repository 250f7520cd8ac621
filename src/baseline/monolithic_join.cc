#include "baseline/monolithic_join.h"

#include <cstring>

#include "core/row_vector.h"
#include "suboperators/radix.h"

namespace modularis::baseline {

namespace {

/// Per-rank state of the hand-tuned join. Everything is specialized to
/// the 16-byte workload; there is deliberately no abstraction boundary
/// between phases (that is the point of the comparison).
class JoinWorker {
 public:
  JoinWorker(const MonolithicJoinOptions& opts, mpi::Communicator* comm,
             const RowVector& inner, const RowVector& outer,
             StatsRegistry* stats)
      : opts_(opts),
        comm_(comm),
        inner_(inner),
        outer_(outer),
        stats_(stats),
        fanout_(1 << opts.network_radix_bits),
        mask_(fanout_ - 1) {}

  Status Run(RowVectorPtr* result);

 private:
  struct Relation {
    const RowVector* input;
    std::vector<int64_t> local_hist;
    std::vector<int64_t> global_hist;
    std::vector<std::vector<int64_t>> all_local;
    net::WindowId window = -1;
    std::vector<int64_t> partition_base;  // rows, within owner window
    int64_t my_rows = 0;                  // rows landing in my window
  };

  void LocalHistogram(Relation* rel);
  Status GlobalHistogram(Relation* rel);
  Status NetworkPartition(Relation* rel);
  int Owner(int pid) const { return pid % comm_->size(); }

  const MonolithicJoinOptions& opts_;
  mpi::Communicator* comm_;
  const RowVector& inner_;
  const RowVector& outer_;
  StatsRegistry* stats_;
  const int fanout_;
  const uint32_t mask_;
};

void JoinWorker::LocalHistogram(Relation* rel) {
  rel->local_hist.assign(fanout_, 0);
  const uint8_t* p = rel->input->data();
  const size_t n = rel->input->size();
  for (size_t i = 0; i < n; ++i, p += 16) {
    int64_t key;
    std::memcpy(&key, p, 8);
    ++rel->local_hist[key & mask_];
  }
}

Status JoinWorker::GlobalHistogram(Relation* rel) {
  rel->global_hist = rel->local_hist;
  MODULARIS_RETURN_NOT_OK(comm_->AllreduceSum(&rel->global_hist));
  return comm_->AllgatherI64(rel->local_hist, &rel->all_local);
}

Status JoinWorker::NetworkPartition(Relation* rel) {
  const int world = comm_->size();
  const int me = comm_->rank();
  const uint32_t out_row = opts_.compress ? 8 : 16;

  // Window layout: my partitions in ascending pid order.
  rel->partition_base.assign(fanout_, 0);
  std::vector<int64_t> owner_rows(world, 0);
  for (int pid = 0; pid < fanout_; ++pid) {
    rel->partition_base[pid] = owner_rows[Owner(pid)];
    owner_rows[Owner(pid)] += rel->global_hist[pid];
  }
  rel->my_rows = owner_rows[me];
  MODULARIS_ASSIGN_OR_RETURN(
      rel->window,
      comm_->WinAllocate(static_cast<size_t>(rel->my_rows) * out_row));

  std::vector<int64_t> write_offset(fanout_);
  for (int pid = 0; pid < fanout_; ++pid) {
    int64_t before = 0;
    for (int r = 0; r < me; ++r) before += rel->all_local[r][pid];
    write_offset[pid] = rel->partition_base[pid] + before;
  }

  // Software write-combining buffers + asynchronous one-sided writes.
  const size_t buf_rows = std::max<size_t>(1, opts_.buffer_bytes / out_row);
  std::vector<std::vector<uint8_t>> buffers(fanout_);
  std::vector<size_t> filled(fanout_, 0);
  for (auto& b : buffers) b.resize(buf_rows * out_row);

  const int P = opts_.key_domain_bits;
  const int F = opts_.network_radix_bits;
  const uint8_t* p = rel->input->data();
  const size_t n = rel->input->size();
  for (size_t i = 0; i < n; ++i, p += 16) {
    int64_t key, value;
    std::memcpy(&key, p, 8);
    std::memcpy(&value, p + 8, 8);
    uint32_t pid = static_cast<uint32_t>(key) & mask_;
    uint8_t* dst = buffers[pid].data() + filled[pid] * out_row;
    if (opts_.compress) {
      int64_t word = ((key >> F) << P) | value;
      std::memcpy(dst, &word, 8);
    } else {
      std::memcpy(dst, p, 16);
    }
    if (++filled[pid] == buf_rows) {
      MODULARIS_RETURN_NOT_OK(comm_->WinPut(
          Owner(pid), rel->window,
          static_cast<size_t>(write_offset[pid]) * out_row,
          buffers[pid].data(), filled[pid] * out_row));
      write_offset[pid] += static_cast<int64_t>(filled[pid]);
      filled[pid] = 0;
    }
  }
  for (int pid = 0; pid < fanout_; ++pid) {
    if (filled[pid] == 0) continue;
    MODULARIS_RETURN_NOT_OK(comm_->WinPut(
        Owner(pid), rel->window,
        static_cast<size_t>(write_offset[pid]) * out_row,
        buffers[pid].data(), filled[pid] * out_row));
    filled[pid] = 0;
  }
  return comm_->WinFlush();
}

Status JoinWorker::Run(RowVectorPtr* result) {
  const int me = comm_->rank();
  const int world = comm_->size();
  const uint32_t net_row = opts_.compress ? 8 : 16;
  const int P = opts_.key_domain_bits;
  const int F = opts_.network_radix_bits;
  const int L = opts_.local_radix_bits;
  const int local_fanout = 1 << L;

  Relation rels[2] = {{&inner_, {}, {}, {}, -1, {}, 0},
                      {&outer_, {}, {}, {}, -1, {}, 0}};
  // One timer re-bound per phase; stats_ is this rank's own registry.
  PhaseTimer timer;

  // Phase 1+2: histograms for both relations, computed sequentially (the
  // original's structure, which the paper notes avoids interleaving
  // collectives with partitioning).
  {
    timer.Bind(stats_, "phase.local_histogram");
    ScopedPhase t(&timer);
    LocalHistogram(&rels[0]);
    LocalHistogram(&rels[1]);
  }
  {
    timer.Bind(stats_, "phase.global_histogram");
    ScopedPhase t(&timer);
    MODULARIS_RETURN_NOT_OK(GlobalHistogram(&rels[0]));
    MODULARIS_RETURN_NOT_OK(GlobalHistogram(&rels[1]));
  }

  // Phase 3: network partitioning for both relations back to back, one
  // flush + barrier at the end.
  {
    timer.Bind(stats_, "phase.network_partition");
    ScopedPhase t(&timer);
    MODULARIS_RETURN_NOT_OK(NetworkPartition(&rels[0]));
    MODULARIS_RETURN_NOT_OK(NetworkPartition(&rels[1]));
    MODULARIS_RETURN_NOT_OK(comm_->Barrier());
  }

  // Phase 4: local radix partitioning, hand-tuned: single contiguous
  // output buffer per relation with prefix offsets.
  struct LocalParts {
    std::vector<uint8_t> data;                 // all rows, grouped by lpid
    std::vector<std::vector<int64_t>> begin;   // [net pid][lpid] row offset
    std::vector<std::vector<int64_t>> count;
  };
  LocalParts parts[2];
  {
    timer.Bind(stats_, "phase.local_partition");
    ScopedPhase t(&timer);
    for (int rel_index = 0; rel_index < 2; ++rel_index) {
      Relation& rel = rels[rel_index];
      LocalParts& lp = parts[rel_index];
      lp.data.resize(static_cast<size_t>(rel.my_rows) * net_row);
      const uint8_t* win = comm_->WinData(rel.window);
      for (int pid = me; pid < fanout_; pid += world) {
        const uint8_t* src =
            win + static_cast<size_t>(rel.partition_base[pid]) * net_row;
        int64_t rows = rel.global_hist[pid];
        std::vector<int64_t> hist(local_fanout, 0);
        const int shift = opts_.compress ? P : F;
        const uint8_t* q = src;
        for (int64_t i = 0; i < rows; ++i, q += net_row) {
          int64_t w;
          std::memcpy(&w, q, 8);
          ++hist[(w >> shift) & (local_fanout - 1)];
        }
        std::vector<int64_t> offsets(local_fanout, 0);
        int64_t base = rel.partition_base[pid];
        std::vector<int64_t> begins(local_fanout);
        for (int lp_id = 0; lp_id < local_fanout; ++lp_id) {
          begins[lp_id] = base;
          offsets[lp_id] = base;
          base += hist[lp_id];
        }
        q = src;
        uint8_t* out_base = lp.data.data();
        for (int64_t i = 0; i < rows; ++i, q += net_row) {
          int64_t w;
          std::memcpy(&w, q, 8);
          int64_t& off = offsets[(w >> shift) & (local_fanout - 1)];
          std::memcpy(out_base + static_cast<size_t>(off) * net_row, q,
                      net_row);
          ++off;
        }
        lp.begin.push_back(std::move(begins));
        lp.count.push_back(std::move(hist));
      }
      MODULARIS_RETURN_NOT_OK(comm_->WinFree(rel.window));
    }
  }

  // Phase 5: build & probe each local partition pair; materialize
  // ⟨key, value, value_r⟩ rows.
  RowVectorPtr out = RowVector::Make(
      Schema({Field::I64("key"), Field::I64("value"),
              Field::I64("value_r")}));
  {
    timer.Bind(stats_, "phase.build_probe");
    ScopedPhase t(&timer);
    out->Reserve(static_cast<size_t>(rels[1].my_rows));
    uint8_t row_buf[24];
    std::vector<uint32_t> heads;
    std::vector<uint32_t> next;
    std::vector<int64_t> keys;
    std::vector<int64_t> values;
    size_t part_index = 0;
    for (int pid = me; pid < fanout_; pid += world, ++part_index) {
      for (int lp_id = 0; lp_id < local_fanout; ++lp_id) {
        int64_t bn = parts[0].count[part_index][lp_id];
        int64_t pn = parts[1].count[part_index][lp_id];
        if (bn == 0 || pn == 0) continue;
        const uint8_t* brows =
            parts[0].data.data() +
            static_cast<size_t>(parts[0].begin[part_index][lp_id]) * net_row;
        const uint8_t* prows =
            parts[1].data.data() +
            static_cast<size_t>(parts[1].begin[part_index][lp_id]) * net_row;

        size_t buckets = 16;
        while (buckets < static_cast<size_t>(bn) * 2) buckets <<= 1;
        heads.assign(buckets, 0xFFFFFFFFu);
        next.assign(bn, 0xFFFFFFFFu);
        keys.resize(bn);
        values.resize(bn);
        const uint64_t bmask = buckets - 1;
        const uint8_t* q = brows;
        for (int64_t i = 0; i < bn; ++i, q += net_row) {
          int64_t w;
          std::memcpy(&w, q, 8);
          int64_t k = opts_.compress ? (w >> P) : w;
          keys[i] = k;
          if (opts_.compress) {
            values[i] = w & ((int64_t{1} << P) - 1);
          } else {
            std::memcpy(&values[i], q + 8, 8);
          }
          size_t slot = MixHash64(static_cast<uint64_t>(k)) & bmask;
          next[i] = heads[slot];
          heads[slot] = static_cast<uint32_t>(i);
        }
        q = prows;
        for (int64_t i = 0; i < pn; ++i, q += net_row) {
          int64_t w;
          std::memcpy(&w, q, 8);
          int64_t k = opts_.compress ? (w >> P) : w;
          int64_t v;
          if (opts_.compress) {
            v = w & ((int64_t{1} << P) - 1);
          } else {
            std::memcpy(&v, q + 8, 8);
          }
          size_t slot = MixHash64(static_cast<uint64_t>(k)) & bmask;
          for (uint32_t e = heads[slot]; e != 0xFFFFFFFFu; e = next[e]) {
            if (keys[e] != k) continue;
            int64_t full_key = opts_.compress ? ((k << F) | pid) : k;
            std::memcpy(row_buf, &full_key, 8);
            std::memcpy(row_buf + 8, &values[e], 8);
            std::memcpy(row_buf + 16, &v, 8);
            out->AppendRaw(row_buf);
          }
        }
      }
    }
  }
  *result = std::move(out);
  return Status::OK();
}

}  // namespace

Result<RowVectorPtr> RunMonolithicJoin(
    const std::vector<RowVectorPtr>& inner,
    const std::vector<RowVectorPtr>& outer,
    const MonolithicJoinOptions& options, StatsRegistry* stats) {
  if (static_cast<int>(inner.size()) != options.world_size ||
      static_cast<int>(outer.size()) != options.world_size) {
    return Status::InvalidArgument(
        "RunMonolithicJoin: need one fragment per rank");
  }
  std::vector<RowVectorPtr> results(options.world_size);
  std::vector<StatsRegistry> rank_stats(options.world_size);
  Status st = mpi::MpiRuntime::Run(
      options.world_size, options.fabric,
      [&](mpi::Communicator& comm) -> Status {
        const int r = comm.rank();
        JoinWorker worker(options, &comm, *inner[r], *outer[r],
                          &rank_stats[r]);
        MODULARIS_RETURN_NOT_OK(worker.Run(&results[r]));
        rank_stats[r].AddCounter("net.bytes_sent",
                                 comm.fabric().bytes_sent(r));
        rank_stats[r].AddCounter("net.msgs_sent",
                                 comm.fabric().msgs_sent(r));
        rank_stats[r].AddTime("net.charged_seconds",
                              comm.fabric().charged_seconds(r));
        return Status::OK();
      });
  MODULARIS_RETURN_NOT_OK(st);
  for (const StatsRegistry& rs : rank_stats) stats->MergeMax(rs);

  RowVectorPtr merged = results[0];
  for (int r = 1; r < options.world_size; ++r) {
    merged->AppendAll(*results[r]);
  }
  return merged;
}

}  // namespace modularis::baseline
