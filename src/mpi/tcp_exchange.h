#ifndef MODULARIS_MPI_TCP_EXCHANGE_H_
#define MODULARIS_MPI_TCP_EXCHANGE_H_

#include <string>

#include "core/sub_operator.h"
#include "mpi/communicator.h"
#include "suboperators/radix.h"

/// \file tcp_exchange.h
/// The TCP-based exchange the paper names as the natural next backend
/// (§4.4: "we could extend the TPC-H implementation to use an exchange
/// operator based on TCP. The addition of more backends only requires
/// changing the executor and the operators that comprise the network
/// exchange phase"). Unlike MpiExchange it needs no histograms and no RMA
/// windows: records are hash-partitioned into one bucket per peer and
/// pushed with two-sided sends; every rank then owns exactly one
/// partition. Used by the Presto-profile baseline, whose engines exchange
/// over commodity TCP.

namespace modularis {

/// Two-sided hash exchange. Consumes records/collections; emits a single
/// ⟨pid = rank, partitionData⟩ tuple holding everything routed here.
/// Routing runs morsel-parallel over static worker ranges (two-phase
/// count→write-combining scatter into one destination-ordered wire
/// buffer, docs/DESIGN-exchange.md), and each peer receives its packed
/// RowVector segment in one message — rows of a destination replay input
/// order, so N-thread routing is byte-equal to serial.
class TcpExchange : public SubOperator {
 public:
  struct Options {
    int key_col = 0;
    std::string timer_key = "phase.network_partition";
  };

  /// `schema` is the row schema of the data stream, fixed at plan time
  /// so every rank agrees on the segment stride even when its own input
  /// is empty; input rows of another layout fail with InvalidArgument.
  TcpExchange(SubOpPtr data, Schema schema, Options options)
      : SubOperator("TcpExchange"),
        schema_(std::move(schema)),
        opts_(std::move(options)) {
    AddChild(std::move(data));
  }

  Status Open(ExecContext* ctx) override {
    exchanged_ = false;
    done_ = false;
    mine_.reset();
    return SubOperator::Open(ctx);
  }

  Status Close() override {
    mine_.reset();  // don't retain the partition past the Open cycle
    return SubOperator::Close();
  }

  bool Next(Tuple* out) override;

  /// Record projection of the stream (docs/DESIGN-vectorized.md): the
  /// partition this rank owns as one durable borrowed batch (the pid atom
  /// — always this rank — is only observable through Next()). Next() and
  /// NextBatch() share the stream position: the partition is delivered
  /// exactly once per Open, whichever protocol pulls it first. The input
  /// side drains record streams through the batch protocol, so routing
  /// runs over packed rows instead of one virtual Next() per record.
  bool NextBatch(RowBatch* out) override;

 private:
  /// Buckets the input per destination rank, pushes the peers' buckets
  /// over the fabric and collects this rank's partition into mine_.
  Status DoExchange();

  Schema schema_;
  Options opts_;
  PhaseTimer timer_;
  bool exchanged_ = false;
  bool done_ = false;  // the single output unit was emitted (either form)
  RowVectorPtr mine_;
};

}  // namespace modularis

#endif  // MODULARIS_MPI_TCP_EXCHANGE_H_
