#include "tpch/queries.h"

#include <atomic>
#include <optional>

#include "planner/passes.h"
#include "plans/common.h"
#include "storage/csv.h"

namespace modularis::tpch {

namespace lp = planner::lp;
using planner::LogicalPlanPtr;

const char* PlatformName(Platform platform) {
  switch (platform) {
    case Platform::kRdma: return "rdma";
    case Platform::kRdmaDisc: return "rdma+disc";
    case Platform::kLambda: return "lambda";
    case Platform::kS3Select: return "s3select";
  }
  return "?";
}

TpchRunOptions TpchRunOptions::Rdma(int ranks, bool with_disc) {
  TpchRunOptions o;
  o.platform = with_disc ? Platform::kRdmaDisc : Platform::kRdma;
  o.world_size = ranks;
  o.storage = storage::BlobClientOptions::Nfs();
  return o;
}

TpchRunOptions TpchRunOptions::Lambda(int workers) {
  TpchRunOptions o;
  o.platform = Platform::kLambda;
  o.world_size = workers;
  o.lambda.num_workers = workers;
  o.storage = storage::BlobClientOptions::S3();
  return o;
}

TpchRunOptions TpchRunOptions::S3Select(int workers) {
  TpchRunOptions o = Lambda(workers);
  o.platform = Platform::kS3Select;
  return o;
}

namespace {

enum TableId { kLineitem = 0, kOrdersT = 1, kCustomerT = 2, kPartT = 3 };

Schema FullSchema(int table) {
  switch (table) {
    case kLineitem: return LineitemSchema();
    case kOrdersT: return OrdersSchema();
    case kCustomerT: return CustomerSchema();
    case kPartT: return PartSchema();
  }
  return Schema();
}

const char* TableName(int table) {
  switch (table) {
    case kLineitem: return "lineitem";
    case kOrdersT: return "orders";
    case kCustomerT: return "customer";
    case kPartT: return "part";
  }
  return "?";
}

AggSpec SumF64(ExprPtr in, std::string name) {
  return AggSpec{AggKind::kSum, std::move(in), std::move(name),
                 AtomType::kFloat64};
}
AggSpec SumI64(ExprPtr in, std::string name) {
  return AggSpec{AggKind::kSum, std::move(in), std::move(name),
                 AtomType::kInt64};
}
AggSpec CountStar(std::string name) {
  return AggSpec{AggKind::kCount, nullptr, std::move(name), AtomType::kInt64};
}

int32_t Date(int y, int m, int d) { return DateFromYMD(y, m, d); }

// ---------------------------------------------------------------------------
// Query definitions (logical plans over the full table schemas)
// ---------------------------------------------------------------------------

LogicalPlanPtr ScanTable(int table) {
  return lp::Scan(table, TableName(table), FullSchema(table));
}

/// Authoring override of the Join::broadcast_ok default. Only consulted
/// when no catalog is available (the join-order pass recomputes the flag
/// from cardinality estimates otherwise).
LogicalPlanPtr NoBroadcast(const LogicalPlanPtr& join) {
  auto m = std::make_shared<planner::LogicalPlan>(*join);
  m->broadcast_ok = false;
  return m;
}

LogicalPlanPtr Q1Logical() {
  // The cutoff stays an expression — DATE '1998-12-01' - 90: constant
  // folding reduces it to a literal, which is what lets the scan extract
  // a shipdate pruning range from the pushed-down predicate.
  ExprPtr cutoff =
      ex::Sub(ex::Lit(int64_t{Date(1998, 12, 1)}), ex::Lit(int64_t{90}));
  auto li = lp::Filter(ScanTable(kLineitem),
                       ex::Le(ex::Col(l::kShipDate), cutoff));
  // disc_price = price * (1 - disc); charge = disc_price * (1 + tax).
  ExprPtr disc_price = ex::Mul(ex::Col(l::kExtendedPrice),
                               ex::Sub(ex::Lit(1.0), ex::Col(l::kDiscount)));
  ExprPtr charge =
      ex::Mul(ex::Mul(ex::Col(l::kExtendedPrice),
                      ex::Sub(ex::Lit(1.0), ex::Col(l::kDiscount))),
              ex::Add(ex::Lit(1.0), ex::Col(l::kTax)));
  auto agg = lp::Aggregate(li, {l::kReturnFlag, l::kLineStatus},
                           {SumF64(ex::Col(l::kQuantity), "sum_qty"),
                            SumF64(ex::Col(l::kExtendedPrice),
                                   "sum_base_price"),
                            SumF64(disc_price, "sum_disc_price"),
                            SumF64(charge, "sum_charge"),
                            CountStar("count_order")});
  return lp::Sort(agg, {{0, false}, {1, false}});
}

LogicalPlanPtr Q3Logical() {
  const int64_t date = Date(1995, 3, 15);
  auto cust = lp::Filter(
      ScanTable(kCustomerT),
      ex::Eq(ex::Col(c::kMktSegment), ex::Lit(std::string("BUILDING"))));
  auto ord = lp::Filter(ScanTable(kOrdersT),
                        ex::Lt(ex::Col(o::kOrderDate), ex::Lit(date)));
  auto li = lp::Filter(ScanTable(kLineitem),
                       ex::Gt(ex::Col(l::kShipDate), ex::Lit(date)));

  // customer ⋈ orders on custkey; concat columns: customer then orders.
  const int nc = CustomerSchema().num_fields();
  Schema j1s({Field::I64("o_orderkey"), Field::Date("o_orderdate"),
              Field::I32("o_shippriority")});
  auto j1 = lp::Project(
      lp::Join(cust, ord, JoinType::kInner, c::kCustKey, o::kCustKey),
      {MapOutput::Pass(nc + o::kOrderKey), MapOutput::Pass(nc + o::kOrderDate),
       MapOutput::Pass(nc + o::kShipPriority)},
      j1s);

  // (customer ⋈ orders) ⋈ lineitem on orderkey, computing revenue.
  Schema j2s({Field::I64("l_orderkey"), Field::Date("o_orderdate"),
              Field::I32("o_shippriority"), Field::F64("revenue")});
  auto j2 = lp::Project(
      lp::Join(j1, li, JoinType::kInner, 0, l::kOrderKey),
      {MapOutput::Pass(0), MapOutput::Pass(1), MapOutput::Pass(2),
       MapOutput::Compute(
           ex::Mul(ex::Col(3 + l::kExtendedPrice),
                   ex::Sub(ex::Lit(1.0), ex::Col(3 + l::kDiscount))))},
      j2s);

  auto agg = lp::Aggregate(j2, {0, 1, 2}, {SumF64(ex::Col(3), "revenue")});
  auto fin = lp::Project(agg,
                         {MapOutput::Pass(0), MapOutput::Pass(3),
                          MapOutput::Pass(1), MapOutput::Pass(2)},
                         Q3OutSchema());
  return lp::Limit(lp::Sort(fin, {{1, true}, {2, false}, {0, false}}), 10);
}

LogicalPlanPtr Q4Logical() {
  const int64_t lo = Date(1993, 7, 1);
  const int64_t hi = AddMonths(static_cast<int32_t>(lo), 3);
  auto ord = lp::Filter(
      ScanTable(kOrdersT),
      ex::And(ex::Ge(ex::Col(o::kOrderDate), ex::Lit(lo)),
              ex::Lt(ex::Col(o::kOrderDate), ex::Lit(hi))));
  auto li = lp::Filter(ScanTable(kLineitem),
                       ex::Lt(ex::Col(l::kCommitDate),
                              ex::Col(l::kReceiptDate)));

  // EXISTS: orders ⋉ late lineitems on orderkey (semi join — one of the
  // §3.4 BuildProbe variants). The build side is lineitem-sized, so
  // broadcasting it would be a mistake; the cost pass reaches the same
  // verdict from the estimates.
  auto semi = NoBroadcast(
      lp::Join(li, ord, JoinType::kSemi, l::kOrderKey, o::kOrderKey));
  auto agg =
      lp::Aggregate(semi, {o::kOrderPriority}, {CountStar("order_count")});
  return lp::Sort(agg, {{0, false}});
}

LogicalPlanPtr Q6Logical() {
  const int64_t lo = Date(1994, 1, 1);
  const int64_t hi = Date(1995, 1, 1);
  auto li = lp::Filter(
      ScanTable(kLineitem),
      ex::And({ex::Ge(ex::Col(l::kShipDate), ex::Lit(lo)),
               ex::Lt(ex::Col(l::kShipDate), ex::Lit(hi)),
               ex::Ge(ex::Col(l::kDiscount), ex::Lit(0.05 - 1e-9)),
               ex::Le(ex::Col(l::kDiscount), ex::Lit(0.07 + 1e-9)),
               ex::Lt(ex::Col(l::kQuantity), ex::Lit(24.0))}));
  return lp::Aggregate(li, {},
                       {SumF64(ex::Mul(ex::Col(l::kExtendedPrice),
                                       ex::Col(l::kDiscount)),
                               "revenue")});
}

LogicalPlanPtr Q12Logical() {
  const int64_t lo = Date(1994, 1, 1);
  const int64_t hi = Date(1995, 1, 1);
  auto li = lp::Filter(
      ScanTable(kLineitem),
      ex::And({ex::InStr(ex::Col(l::kShipMode), {"MAIL", "SHIP"}),
               ex::Lt(ex::Col(l::kCommitDate), ex::Col(l::kReceiptDate)),
               ex::Lt(ex::Col(l::kShipDate), ex::Col(l::kCommitDate)),
               ex::Ge(ex::Col(l::kReceiptDate), ex::Lit(lo)),
               ex::Lt(ex::Col(l::kReceiptDate), ex::Lit(hi))}));
  auto ord = ScanTable(kOrdersT);

  // lineitem' ⋈ orders on orderkey; classify priority (Fig. 6's plan).
  const int nl = LineitemSchema().num_fields();
  ExprPtr is_high =
      ex::InStr(ex::Col(nl + o::kOrderPriority), {"1-URGENT", "2-HIGH"});
  Schema js({Field::Str("l_shipmode", 10), Field::I64("high"),
             Field::I64("low")});
  auto j = lp::Project(
      lp::Join(li, ord, JoinType::kInner, l::kOrderKey, o::kOrderKey),
      {MapOutput::Pass(l::kShipMode),
       MapOutput::Compute(ex::If(is_high, ex::Lit(int64_t{1}),
                                 ex::Lit(int64_t{0}))),
       MapOutput::Compute(ex::If(is_high, ex::Lit(int64_t{0}),
                                 ex::Lit(int64_t{1})))},
      js);

  auto agg = lp::Aggregate(j, {0},
                           {SumI64(ex::Col(1), "high_line_count"),
                            SumI64(ex::Col(2), "low_line_count")});
  return lp::Sort(agg, {{0, false}});
}

LogicalPlanPtr Q14Logical() {
  const int64_t lo = Date(1995, 9, 1);
  const int64_t hi = AddMonths(static_cast<int32_t>(lo), 1);
  auto li = lp::Filter(
      ScanTable(kLineitem),
      ex::And(ex::Ge(ex::Col(l::kShipDate), ex::Lit(lo)),
              ex::Lt(ex::Col(l::kShipDate), ex::Lit(hi))));
  auto part = ScanTable(kPartT);

  // lineitem' ⋈ part on partkey; conditional promo revenue (the UDF-ish
  // Map the paper singles out in §5.1.1).
  const int nl = LineitemSchema().num_fields();
  ExprPtr rev = ex::Mul(ex::Col(l::kExtendedPrice),
                        ex::Sub(ex::Lit(1.0), ex::Col(l::kDiscount)));
  Schema js({Field::F64("promo_rev"), Field::F64("rev")});
  auto j = lp::Project(
      lp::Join(li, part, JoinType::kInner, l::kPartKey, p::kPartKey),
      {MapOutput::Compute(ex::If(ex::Like(ex::Col(nl + p::kType), "PROMO%"),
                                 rev, ex::Lit(0.0))),
       MapOutput::Compute(rev)},
      js);

  auto agg = lp::Aggregate(
      j, {}, {SumF64(ex::Col(0), "promo"), SumF64(ex::Col(1), "total")});
  return lp::Project(agg,
                     {MapOutput::Compute(ex::Mul(
                         ex::Lit(100.0), ex::Div(ex::Col(0), ex::Col(1))))},
                     Q14OutSchema());
}

LogicalPlanPtr Q18Logical() {
  auto li = ScanTable(kLineitem);
  // High-cardinality aggregation with HAVING sum(qty) > 300.
  auto big = lp::Aggregate(li, {l::kOrderKey},
                           {SumF64(ex::Col(l::kQuantity), "sum_qty")},
                           ex::Gt(ex::Col(1), ex::Lit(300.0)));
  auto ord = ScanTable(kOrdersT);

  // big ⋈ orders on orderkey; concat columns: big ⟨key, sum_qty⟩ then
  // orders.
  Schema j1s({Field::I64("o_custkey"), Field::I64("o_orderkey"),
              Field::Date("o_orderdate"), Field::F64("o_totalprice"),
              Field::F64("sum_qty")});
  auto j1 = lp::Project(
      lp::Join(big, ord, JoinType::kInner, 0, o::kOrderKey),
      {MapOutput::Pass(2 + o::kCustKey), MapOutput::Pass(0),
       MapOutput::Pass(2 + o::kOrderDate), MapOutput::Pass(2 + o::kTotalPrice),
       MapOutput::Pass(1)},
      j1s);

  auto cust = ScanTable(kCustomerT);
  const int nc = CustomerSchema().num_fields();
  // customer ⋈ j1 on custkey → final Q18 rows.
  auto j2 = lp::Project(
      lp::Join(cust, j1, JoinType::kInner, c::kCustKey, 0),
      {MapOutput::Pass(c::kName), MapOutput::Pass(c::kCustKey),
       MapOutput::Pass(nc + 1), MapOutput::Pass(nc + 2),
       MapOutput::Pass(nc + 3), MapOutput::Pass(nc + 4)},
      Q18OutSchema());
  return lp::Limit(lp::Sort(j2, {{4, true}, {3, false}, {2, false}}), 100);
}

LogicalPlanPtr Q19Logical() {
  auto li = lp::Filter(
      ScanTable(kLineitem),
      ex::And({ex::InStr(ex::Col(l::kShipMode), {"AIR", "REG AIR"}),
               ex::Eq(ex::Col(l::kShipInstruct),
                      ex::Lit(std::string("DELIVER IN PERSON"))),
               ex::Ge(ex::Col(l::kQuantity), ex::Lit(1.0)),
               ex::Le(ex::Col(l::kQuantity), ex::Lit(30.0))}));
  auto part = lp::Filter(
      ScanTable(kPartT),
      ex::And({ex::InStr(ex::Col(p::kBrand),
                         {"Brand#12", "Brand#23", "Brand#34"}),
               ex::Ge(ex::Col(p::kSize), ex::Lit(int64_t{1})),
               ex::Le(ex::Col(p::kSize), ex::Lit(int64_t{15}))}));

  // Disjunctive predicate over the joined record; every branch touches
  // both sides, so it stays a residual above the join. The columns are
  // full-concat indices (lineitem then part); the authored build side is
  // lineitem — the cost pass flips it to the far smaller part' side.
  const int nl = LineitemSchema().num_fields();
  auto branch = [nl](const char* brand, std::vector<std::string> containers,
                     double qlo, double qhi, int64_t smax) {
    return ex::And({ex::Eq(ex::Col(nl + p::kBrand),
                           ex::Lit(std::string(brand))),
                    ex::InStr(ex::Col(nl + p::kContainer),
                              std::move(containers)),
                    ex::Ge(ex::Col(l::kQuantity), ex::Lit(qlo)),
                    ex::Le(ex::Col(l::kQuantity), ex::Lit(qhi)),
                    ex::Le(ex::Col(nl + p::kSize), ex::Lit(smax))});
  };
  ExprPtr predicate = ex::Or(
      {branch("Brand#12", {"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11,
              5),
       branch("Brand#23", {"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10,
              20, 10),
       branch("Brand#34", {"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30,
              15)});

  Schema js({Field::F64("rev")});
  auto j = lp::Project(
      lp::Filter(lp::Join(li, part, JoinType::kInner, l::kPartKey,
                          p::kPartKey),
                 predicate),
      {MapOutput::Compute(
          ex::Mul(ex::Col(l::kExtendedPrice),
                  ex::Sub(ex::Lit(1.0), ex::Col(l::kDiscount))))},
      js);
  return lp::Aggregate(j, {}, {SumF64(ex::Col(0), "revenue")});
}

std::atomic<uint64_t> g_run_counter{0};

/// Adapter installing a per-rank storage client into the ExecContext
/// before opening the wrapped plan (the RDMA-with-disc configuration
/// reads base tables through an NFS-profile client).
class WithBlobClient : public SubOperator {
 public:
  WithBlobClient(SubOpPtr inner, storage::BlobStore* store,
                 storage::BlobClientOptions profile)
      : SubOperator("WithBlobClient"),
        inner_(std::move(inner)),
        store_(store),
        profile_(std::move(profile)) {}

  Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    status_ = Status::OK();
    client_ = std::make_unique<storage::BlobClient>(store_, profile_,
                                                    ctx->rank);
    ctx->blob = client_.get();
    return inner_->Open(ctx);
  }
  bool Next(Tuple* out) override {
    if (inner_->Next(out)) return true;
    if (!inner_->status().ok()) return Fail(inner_->status());
    return false;
  }
  Status Close() override { return inner_->Close(); }

 private:
  SubOpPtr inner_;
  storage::BlobStore* store_;
  storage::BlobClientOptions profile_;
  std::unique_ptr<storage::BlobClient> client_;
};

planner::ScanLeafKind ScanLeafFor(Platform platform) {
  switch (platform) {
    case Platform::kRdma: return planner::ScanLeafKind::kMemoryRows;
    case Platform::kRdmaDisc:
    case Platform::kLambda: return planner::ScanLeafKind::kColumnFile;
    case Platform::kS3Select: return planner::ScanLeafKind::kS3Select;
  }
  return planner::ScanLeafKind::kMemoryRows;
}

}  // namespace

Result<LogicalPlanPtr> TpchLogicalPlan(int query) {
  switch (query) {
    case 1: return Q1Logical();
    case 3: return Q3Logical();
    case 4: return Q4Logical();
    case 6: return Q6Logical();
    case 12: return Q12Logical();
    case 14: return Q14Logical();
    case 18: return Q18Logical();
    case 19: return Q19Logical();
    default:
      return Status::InvalidArgument("unsupported TPC-H query " +
                                     std::to_string(query));
  }
}

planner::Catalog TpchCatalog(const std::array<size_t, kNumPlanTables>& rows) {
  using planner::ColumnStats;
  auto distinct = [](double d) {
    ColumnStats s;
    s.distinct = d;
    return s;
  };
  auto ranged = [](double d, double lo, double hi) {
    ColumnStats s;
    s.distinct = d;
    s.has_range = true;
    s.min = lo;
    s.max = hi;
    return s;
  };
  // TPC-H populations from the spec; dates span 1992-01-01..1998-12-31.
  const double date_lo = Date(1992, 1, 1);
  const double date_hi = Date(1998, 12, 31);
  const double days = date_hi - date_lo;
  ColumnStats dates = ranged(days, date_lo, date_hi);

  planner::Catalog cat;
  planner::TableStats li;
  li.rows = static_cast<double>(rows[kLineitem]);
  li.columns[l::kOrderKey] = distinct(static_cast<double>(rows[kOrdersT]));
  li.columns[l::kPartKey] = distinct(static_cast<double>(rows[kPartT]));
  li.columns[l::kQuantity] = ranged(50, 1, 50);
  li.columns[l::kDiscount] = ranged(11, 0.0, 0.10);
  li.columns[l::kReturnFlag] = distinct(3);
  li.columns[l::kLineStatus] = distinct(2);
  li.columns[l::kShipDate] = dates;
  li.columns[l::kCommitDate] = dates;
  li.columns[l::kReceiptDate] = dates;
  li.columns[l::kShipInstruct] = distinct(4);
  li.columns[l::kShipMode] = distinct(7);
  cat.tables[kLineitem] = li;

  planner::TableStats ord;
  ord.rows = static_cast<double>(rows[kOrdersT]);
  ord.columns[o::kOrderKey] = distinct(static_cast<double>(rows[kOrdersT]));
  ord.columns[o::kCustKey] = distinct(static_cast<double>(rows[kCustomerT]));
  ord.columns[o::kOrderStatus] = distinct(3);
  ord.columns[o::kOrderDate] = dates;
  ord.columns[o::kOrderPriority] = distinct(5);
  cat.tables[kOrdersT] = ord;

  planner::TableStats cust;
  cust.rows = static_cast<double>(rows[kCustomerT]);
  cust.columns[c::kCustKey] = distinct(static_cast<double>(rows[kCustomerT]));
  cust.columns[c::kMktSegment] = distinct(5);
  cust.columns[c::kNationKey] = distinct(25);
  cat.tables[kCustomerT] = cust;

  planner::TableStats part;
  part.rows = static_cast<double>(rows[kPartT]);
  part.columns[p::kPartKey] = distinct(static_cast<double>(rows[kPartT]));
  part.columns[p::kBrand] = distinct(25);
  part.columns[p::kType] = distinct(150);
  part.columns[p::kSize] = ranged(50, 1, 50);
  part.columns[p::kContainer] = distinct(40);
  cat.tables[kPartT] = part;
  return cat;
}

// ---------------------------------------------------------------------------
// Data preparation
// ---------------------------------------------------------------------------

namespace {

/// Row i of `table` goes to shard i % world, keeping its order.
std::vector<ColumnTablePtr> ShardRoundRobin(const ColumnTable& table,
                                            int world) {
  std::vector<ColumnTablePtr> shards;
  for (int r = 0; r < world; ++r) {
    shards.push_back(ColumnTable::Make(table.schema()));
  }
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& src = table.column(c);
    for (int r = 0; r < world; ++r) {
      Column& dst = shards[r]->column(c);
      for (size_t i = r; i < table.num_rows(); i += world) {
        switch (src.type()) {
          case AtomType::kInt32:
          case AtomType::kDate:
            dst.AppendInt32(src.GetInt32(i));
            break;
          case AtomType::kInt64:
            dst.AppendInt64(src.GetInt64(i));
            break;
          case AtomType::kFloat64:
            dst.AppendFloat64(src.GetFloat64(i));
            break;
          case AtomType::kString:
            dst.AppendString(src.GetString(i));
            break;
        }
      }
    }
  }
  for (const ColumnTablePtr& shard : shards) shard->FinishBulkLoad();
  return shards;
}

}  // namespace

Result<std::unique_ptr<TpchContext>> PrepareTpch(const TpchTables& db,
                                                 const TpchRunOptions& opts) {
  auto ctx = std::make_unique<TpchContext>();
  ctx->platform = opts.platform;
  ctx->world_size = opts.world_size;
  ctx->store = std::make_unique<storage::BlobStore>();

  const ColumnTablePtr tables[kNumPlanTables] = {db.lineitem, db.orders,
                                                 db.customer, db.part};
  for (int t = 0; t < kNumPlanTables; ++t) {
    ctx->table_rows[t] = tables[t]->num_rows();
    std::vector<ColumnTablePtr> shards =
        ShardRoundRobin(*tables[t], opts.world_size);
    if (opts.platform == Platform::kRdma) {
      ctx->frags.push_back(std::move(shards));
      continue;
    }
    // File-backed platforms: one shard object per (table, rank).
    ctx->paths.emplace_back();
    for (size_t r = 0; r < shards.size(); ++r) {
      const bool csv = opts.platform == Platform::kS3Select;
      std::string key = "tpch/" + std::string(TableName(t)) + "/shard-" +
                        std::to_string(r) + (csv ? ".csv" : ".mcf");
      ctx->store->Put(key, csv ? storage::WriteCsv(*shards[r])
                               : storage::WriteColumnFile(*shards[r]));
      ctx->paths[t].push_back(std::move(key));
    }
  }
  if (opts.platform == Platform::kS3Select) {
    ctx->s3select = std::make_unique<serverless::S3SelectEngine>(
        ctx->store.get(), opts.s3select);
  }
  return ctx;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

SubOpPtr TpchGather(const TpchContext& ctx, const TpchRunOptions& opts,
                    const std::string& tag, RankPlanFactory ranks,
                    const Schema& schema) {
  auto path_params = [&ctx](int rank) {
    Tuple t;
    for (int tb = 0; tb < kNumPlanTables; ++tb) {
      t.push_back(Item(ctx.paths[tb][rank]));
    }
    return t;
  };
  if (opts.platform == Platform::kRdma ||
      opts.platform == Platform::kRdmaDisc) {
    MpiExecutor::Config config;
    config.world_size = opts.world_size;
    config.fabric = opts.fabric;
    config.spill_store = ctx.store.get();
    if (opts.platform == Platform::kRdma) {
      config.plan_factory = std::move(ranks);
      config.rank_params = [&ctx](int rank) {
        Tuple t;
        for (int tb = 0; tb < kNumPlanTables; ++tb) {
          t.push_back(Item(ctx.frags[tb][rank]));
        }
        return t;
      };
    } else {
      // Disc-backed tables: install an NFS-profile client per rank.
      config.plan_factory = [ranks = std::move(ranks), store = ctx.store.get(),
                             profile = opts.storage](
                                int rank) -> Result<SubOpPtr> {
        MODULARIS_ASSIGN_OR_RETURN(SubOpPtr plan, ranks(rank));
        return SubOpPtr(
            std::make_unique<WithBlobClient>(std::move(plan), store, profile));
      };
      config.rank_params = path_params;
    }
    return std::make_unique<MpiExecutor>(std::move(config));
  }
  LambdaExecutor::Config config;
  config.lambda = opts.lambda;
  config.lambda.num_workers = opts.world_size;
  config.lambda.s3 = opts.storage;
  config.store = ctx.store.get();
  config.s3select = ctx.s3select.get();
  // Workers publish their results to S3 (MaterializeParquet), and the
  // driver reads them back (ParquetScan → ColumnScan, Fig. 7).
  config.plan_factory = [ranks = std::move(ranks), schema,
                         tag](int worker) -> Result<SubOpPtr> {
    MODULARIS_ASSIGN_OR_RETURN(SubOpPtr plan, ranks(worker));
    return SubOpPtr(std::make_unique<MaterializeColumnFile>(
        std::move(plan), schema,
        tag + "/result-" + std::to_string(worker) + ".mcf"));
  };
  config.worker_params = path_params;
  ColumnFileScan::Options copts;
  copts.retry = opts.exec.retry;
  return std::make_unique<ColumnScan>(
      std::make_unique<ColumnFileScan>(
          std::make_unique<LambdaExecutor>(std::move(config)), copts),
      schema);
}

Result<RowVectorPtr> RunTpchPlan(LogicalPlanPtr root, const TpchContext& ctx,
                                 const TpchRunOptions& opts,
                                 StatsRegistry* stats) {
  if (opts.platform != ctx.platform || opts.world_size != ctx.world_size) {
    return Status::InvalidArgument(
        std::string("tpch: a context prepared for ") +
        PlatformName(ctx.platform) + " x" + std::to_string(ctx.world_size) +
        " cannot run on " + PlatformName(opts.platform) + " x" +
        std::to_string(opts.world_size));
  }
  const bool serverless = opts.platform == Platform::kLambda ||
                          opts.platform == Platform::kS3Select;
  if (serverless && (opts.world_size & (opts.world_size - 1)) != 0) {
    return Status::InvalidArgument(
        "serverless platforms require a power-of-two worker count");
  }
  MODULARIS_ASSIGN_OR_RETURN(planner::DriverSpec split,
                             planner::SplitAtDriver(std::move(root)));

  const std::string tag = "q-run" + std::to_string(g_run_counter.fetch_add(1));
  planner::LoweringContext lctx;
  lctx.scan_leaf = ScanLeafFor(opts.platform);
  lctx.serverless = serverless;
  lctx.fused = opts.exec.enable_fusion;
  lctx.world = opts.world_size;
  lctx.exec = opts.exec;
  lctx.tag = tag;
  lctx.stats = stats;
  lctx.gather = [&ctx, &opts, tag](RankPlanFactory ranks,
                                   const Schema& schema) {
    return TpchGather(ctx, opts, tag, std::move(ranks), schema);
  };

  // The driver's operators (merge, sort, top-k) get their own budget and
  // spill into the same store as the rank plans (docs/DESIGN-memory.md).
  // Declared before the plan so it outlives their ScopedCharges.
  MemoryBudget budget(opts.exec.memory_limit_bytes);
  std::optional<storage::BlobClient> blob;
  ExecContext driver;
  driver.options = opts.exec;
  driver.stats = stats;
  driver.budget = &budget;
  driver.spill_store = ctx.store.get();
  if (serverless) {
    // Reads the workers' result files back from S3.
    driver.blob = &blob.emplace(ctx.store.get(), opts.storage, -1);
  }
  MODULARIS_ASSIGN_OR_RETURN(SubOpPtr plan,
                             planner::LowerPlan(*split.root, &lctx));
  auto result =
      plans::DrainCollections(plan.get(), &driver, split.root->schema);
  if (stats != nullptr && budget.peak() > 0) {
    stats->AddCounter("mem.peak_bytes", static_cast<int64_t>(budget.peak()));
    if (budget.denials() > 0) {
      stats->AddCounter("mem.denials",
                        static_cast<int64_t>(budget.denials()));
    }
  }
  return result;
}

Result<RowVectorPtr> RunTpchQuery(int query, const TpchContext& ctx,
                                  const TpchRunOptions& opts,
                                  StatsRegistry* stats) {
  MODULARIS_ASSIGN_OR_RETURN(LogicalPlanPtr root, TpchLogicalPlan(query));
  planner::PlannerOptions popts;
  popts.catalog = TpchCatalog(ctx.table_rows);
  return RunTpchPlan(planner::Optimize(std::move(root), popts, stats), ctx,
                     opts, stats);
}

}  // namespace modularis::tpch
