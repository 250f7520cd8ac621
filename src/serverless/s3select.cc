#include "serverless/s3select.h"

#include <chrono>
#include <thread>

#include "storage/csv.h"

namespace modularis::serverless {

Result<std::string> S3SelectEngine::Select(
    const std::string& key, const Schema& schema,
    const std::vector<int>& projection, const ExprPtr& predicate,
    storage::BlobClient* client) const {
  MODULARIS_ASSIGN_OR_RETURN(storage::BlobStore::Blob blob,
                             store_->Get(key));

  // Storage-side scan: the service reads the full object at its internal
  // scan rate (data does not cross the network for this part).
  double scan_seconds =
      static_cast<double>(blob->size()) / options_.scan_bytes_per_sec;
  if (options_.throttle && scan_seconds > 50e-6) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(scan_seconds));
  }

  MODULARIS_ASSIGN_OR_RETURN(ColumnTablePtr table,
                             storage::ReadCsv(*blob, schema));

  std::vector<int> cols = projection;
  if (cols.empty()) {
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      cols.push_back(static_cast<int>(c));
    }
  }
  Schema out_schema = schema.Select(cols);
  ColumnTablePtr out = ColumnTable::Make(out_schema);

  // Predicate evaluation happens AFTER projection: callers write the
  // predicate against the projected schema (the projection always covers
  // the predicate's columns).
  RowVectorPtr scratch = RowVector::Make(out_schema);
  scratch->AppendRow();
  for (size_t r = 0; r < table->num_rows(); ++r) {
    RowWriter w(scratch->mutable_row(0), &scratch->schema());
    for (size_t oc = 0; oc < cols.size(); ++oc) {
      const Column& src = table->column(cols[oc]);
      int col = static_cast<int>(oc);
      switch (out_schema.field(oc).type) {
        case AtomType::kInt32:
        case AtomType::kDate:
          w.SetInt32(col, src.GetInt32(r));
          break;
        case AtomType::kInt64:
          w.SetInt64(col, src.GetInt64(r));
          break;
        case AtomType::kFloat64:
          w.SetFloat64(col, src.GetFloat64(r));
          break;
        case AtomType::kString:
          w.SetString(col, src.GetString(r));
          break;
      }
    }
    if (predicate != nullptr) {
      // Checked, like every other tier: a predicate that evaluates to a
      // non-numeric value fails the request instead of dropping the row.
      bool keep = false;
      MODULARIS_RETURN_NOT_OK(
          predicate->EvalBoolChecked(scratch->row(0), &keep));
      if (!keep) continue;
    }
    for (size_t oc = 0; oc < cols.size(); ++oc) {
      const Column& src = table->column(cols[oc]);
      Column& dst = out->column(oc);
      switch (out_schema.field(oc).type) {
        case AtomType::kInt32:
        case AtomType::kDate:
          dst.AppendInt32(src.GetInt32(r));
          break;
        case AtomType::kInt64:
          dst.AppendInt64(src.GetInt64(r));
          break;
        case AtomType::kFloat64:
          dst.AppendFloat64(src.GetFloat64(r));
          break;
        case AtomType::kString:
          dst.AppendString(src.GetString(r));
          break;
      }
    }
  }
  out->FinishBulkLoad();

  // The response streams back as *uncompressed CSV* over the worker's
  // connection — the §5.1.2 bottleneck.
  std::string csv = storage::WriteCsv(*out);
  if (client != nullptr) client->AccountTransfer(csv.size());
  return csv;
}

}  // namespace modularis::serverless
