#include "appsys/data_dictionary.h"

#include <algorithm>

#include "common/str_util.h"
#include "rdbms/index/key_codec.h"

namespace r3 {
namespace appsys {

using rdbms::CmpOp;
using rdbms::Column;
using rdbms::DataType;
using rdbms::Row;
using rdbms::Schema;
using rdbms::Value;

namespace {

constexpr char kFieldSep = '\x01';
constexpr char kNullMark = '\x02';
constexpr char kRowSep = '\x03';

const char* CmpOpSql(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "=";
}

/// Exact, compact text encoding of one field (pool/cluster blobs).
std::string FieldToText(const Value& v) {
  if (v.is_null()) return std::string(1, kNullMark);
  switch (v.type()) {
    case DataType::kDouble:
      return str::Format("%.17g", v.double_value());
    case DataType::kDecimal:
      return std::to_string(v.decimal_cents());  // exact cents
    case DataType::kDate:
      return std::to_string(v.date_value());
    case DataType::kBool:
      return v.bool_value() ? "1" : "0";
    case DataType::kInt64:
      return std::to_string(v.int_value());
    case DataType::kString:
      return v.string_value();
  }
  return "";
}

Result<Value> TextToField(const std::string& text, DataType type) {
  if (text.size() == 1 && text[0] == kNullMark) return Value::Null(type);
  switch (type) {
    case DataType::kDouble:
      return Value::Dbl(std::strtod(text.c_str(), nullptr));
    case DataType::kDecimal:
      return Value::DecimalFromCents(std::strtoll(text.c_str(), nullptr, 10));
    case DataType::kDate:
      return Value::Date(
          static_cast<int32_t>(std::strtol(text.c_str(), nullptr, 10)));
    case DataType::kBool:
      return Value::Bool(text == "1");
    case DataType::kInt64:
      return Value::Int(std::strtoll(text.c_str(), nullptr, 10));
    case DataType::kString:
      return Value::Str(text);
  }
  return Status::Internal("bad field type");
}

bool CondMatches(const DictCond& cond, const Value& v) {
  if (v.is_null() || cond.value.is_null()) return false;
  int c = v.Compare(cond.value);
  switch (cond.op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

}  // namespace

DataDictionary::DataDictionary(rdbms::Database* db) : db_(db) {}

Status DataDictionary::Bootstrap() {
  if (db_->catalog()->HasTable("DD02L")) return Status::OK();
  return db_->Execute(
      "CREATE TABLE DD02L (TABNAME CHAR(30), TABCLASS CHAR(8), "
      "SQLTAB CHAR(30), PRIMARY KEY (TABNAME))");
}

Status DataDictionary::DefineTransparent(const std::string& name,
                                         Schema schema,
                                         std::vector<std::string> key_columns) {
  if (tables_.count(str::ToUpper(name)) > 0) {
    return Status::AlreadyExists("logical table " + name + " already defined");
  }
  R3_RETURN_IF_ERROR(db_->catalog()->CreateTable(name, schema).status());
  R3_RETURN_IF_ERROR(
      db_->catalog()->CreateIndex(name + "~0", name, key_columns, true).status());
  LogicalTable t;
  t.name = str::ToUpper(name);
  t.kind = TableKind::kTransparent;
  t.schema = std::move(schema);
  t.key_columns = std::move(key_columns);
  t.physical_table = t.name;
  tables_.emplace(t.name, std::move(t));
  return db_->Execute(
      "INSERT INTO DD02L VALUES (?, 'TRANSP', ?)",
      {Value::Str(str::ToUpper(name)), Value::Str(str::ToUpper(name))});
}

Status DataDictionary::EnsurePoolPhysical(const std::string& pool_name) {
  if (db_->catalog()->HasTable(pool_name)) return Status::OK();
  // VARKEY is VARCHAR (not CHAR) so that the space padding between the
  // fixed-width key components survives storage exactly — prefix ranges
  // depend on it.
  return db_->Execute(str::Format(
      "CREATE TABLE %s (TABNAME CHAR(10), VARKEY VARCHAR, VARDATA VARCHAR, "
      "PRIMARY KEY (TABNAME, VARKEY))",
      pool_name.c_str()));
}

Status DataDictionary::DefinePool(const std::string& name, Schema schema,
                                  std::vector<std::string> key_columns,
                                  const std::string& pool_name) {
  if (tables_.count(str::ToUpper(name)) > 0) {
    return Status::AlreadyExists("logical table " + name + " already defined");
  }
  R3_RETURN_IF_ERROR(EnsurePoolPhysical(str::ToUpper(pool_name)));
  LogicalTable t;
  t.name = str::ToUpper(name);
  t.kind = TableKind::kPool;
  t.schema = std::move(schema);
  t.key_columns = std::move(key_columns);
  t.physical_table = str::ToUpper(pool_name);
  tables_.emplace(t.name, std::move(t));
  return db_->Execute(
      "INSERT INTO DD02L VALUES (?, 'POOL', ?)",
      {Value::Str(str::ToUpper(name)), Value::Str(str::ToUpper(pool_name))});
}

Status DataDictionary::EnsureClusterPhysical(const LogicalTable& t) {
  if (db_->catalog()->HasTable(t.physical_table)) return Status::OK();
  // Physical key: the cluster key prefix columns (with their logical types)
  // plus a page number; the bundle lives in VARDATA.
  std::string ddl = "CREATE TABLE " + t.physical_table + " (";
  std::string pk;
  for (size_t i = 0; i < t.cluster_key_count; ++i) {
    const std::string& col = t.key_columns[i];
    R3_ASSIGN_OR_RETURN(size_t idx, t.schema.IndexOf(col));
    const Column& c = t.schema.column(idx);
    ddl += col + " ";
    switch (c.type) {
      case DataType::kString:
        ddl += str::Format("CHAR(%u)", c.length > 0 ? c.length : 32);
        break;
      case DataType::kInt64:
        ddl += "BIGINT";
        break;
      case DataType::kDate:
        ddl += "DATE";
        break;
      default:
        ddl += "VARCHAR";
        break;
    }
    ddl += ", ";
    if (!pk.empty()) pk += ", ";
    pk += col;
  }
  ddl += "PAGENO INT, VARDATA VARCHAR, PRIMARY KEY (" + pk + ", PAGENO))";
  return db_->Execute(ddl);
}

Status DataDictionary::DefineCluster(const std::string& name, Schema schema,
                                     std::vector<std::string> key_columns,
                                     size_t cluster_key_count,
                                     const std::string& cluster_name) {
  if (tables_.count(str::ToUpper(name)) > 0) {
    return Status::AlreadyExists("logical table " + name + " already defined");
  }
  if (cluster_key_count == 0 || cluster_key_count > key_columns.size()) {
    return Status::InvalidArgument("bad cluster key count");
  }
  LogicalTable t;
  t.name = str::ToUpper(name);
  t.kind = TableKind::kCluster;
  t.schema = std::move(schema);
  t.key_columns = std::move(key_columns);
  t.cluster_key_count = cluster_key_count;
  t.physical_table = str::ToUpper(cluster_name);
  R3_RETURN_IF_ERROR(EnsureClusterPhysical(t));
  tables_.emplace(t.name, std::move(t));
  return db_->Execute(
      "INSERT INTO DD02L VALUES (?, 'CLUSTER', ?)",
      {Value::Str(str::ToUpper(name)), Value::Str(str::ToUpper(cluster_name))});
}

Status DataDictionary::DefineJoinView(const std::string& name,
                                      const std::string& select_sql,
                                      Schema schema) {
  if (tables_.count(str::ToUpper(name)) > 0) {
    return Status::AlreadyExists("logical table " + name + " already defined");
  }
  R3_RETURN_IF_ERROR(db_->Execute("CREATE VIEW " + name + " AS " + select_sql));
  LogicalTable t;
  t.name = str::ToUpper(name);
  t.kind = TableKind::kTransparent;
  t.schema = std::move(schema);
  t.physical_table = t.name;
  t.is_view = true;
  tables_.emplace(t.name, std::move(t));
  return db_->Execute("INSERT INTO DD02L VALUES (?, 'VIEW', ?)",
                      {Value::Str(str::ToUpper(name)),
                       Value::Str(str::ToUpper(name))});
}

Status DataDictionary::CreateSecondaryIndex(
    const std::string& table, const std::string& index_suffix,
    const std::vector<std::string>& columns) {
  R3_ASSIGN_OR_RETURN(const LogicalTable* t, Get(table));
  if (t->kind != TableKind::kTransparent) {
    return Status::Unsupported("secondary indexes require a transparent table");
  }
  return db_->catalog()
      ->CreateIndex(t->name + "~" + index_suffix, t->name, columns, false)
      .status();
}

Result<const LogicalTable*> DataDictionary::Get(const std::string& name) const {
  auto it = tables_.find(str::ToUpper(name));
  if (it == tables_.end()) {
    return Status::NotFound("no logical table named '" + name + "'");
  }
  return &it->second;
}

bool DataDictionary::Exists(const std::string& name) const {
  return tables_.count(str::ToUpper(name)) > 0;
}

bool DataDictionary::IsEncapsulated(const std::string& name) const {
  auto it = tables_.find(str::ToUpper(name));
  return it != tables_.end() && it->second.kind != TableKind::kTransparent;
}

std::vector<const LogicalTable*> DataDictionary::AllTables() const {
  std::vector<const LogicalTable*> out;
  out.reserve(tables_.size());
  for (const auto& [name, t] : tables_) out.push_back(&t);
  return out;
}

std::string DataDictionary::EncodeVarKey(const LogicalTable& t, const Row& row,
                                         size_t prefix_count) const {
  std::string key;
  for (size_t i = 0; i < prefix_count && i < t.key_columns.size(); ++i) {
    auto idx = t.schema.IndexOf(t.key_columns[i]);
    const Column& c = t.schema.column(idx.value());
    size_t width = c.type == DataType::kString && c.length > 0 ? c.length : 16;
    key += str::PadTo(FieldToText(row[idx.value()]), width);
  }
  return key;
}

std::string DataDictionary::EncodeVarData(const LogicalTable& t,
                                          const Row& row) const {
  std::string out;
  for (size_t i = 0; i < t.schema.NumColumns(); ++i) {
    if (i != 0) out.push_back(kFieldSep);
    out += FieldToText(row[i]);
  }
  return out;
}

Status DataDictionary::DecodeVarData(const LogicalTable& t,
                                     const std::string& data, Row* row) const {
  ++decode_count_;
  db_->clock()->ChargeAbapTuple();  // dictionary decode runs in the app server
  size_t num_fields = std::count(data.begin(), data.end(), kFieldSep) + 1;
  if (num_fields != t.schema.NumColumns()) {
    return Status::Internal(
        str::Format("bundle of %s has %zu fields, expected %zu",
                    t.name.c_str(), num_fields, t.schema.NumColumns()));
  }
  row->clear();
  row->reserve(num_fields);
  std::string field;  // reused; TextToField's strto* calls need a C string
  for (size_t i = 0, pos = 0; i < num_fields; ++i) {
    size_t end = std::min(data.find(kFieldSep, pos), data.size());
    field.assign(data, pos, end - pos);
    R3_ASSIGN_OR_RETURN(Value v, TextToField(field, t.schema.column(i).type));
    row->push_back(std::move(v));
    pos = end + 1;
  }
  return Status::OK();
}

namespace {

/// Casts a row's values to the logical column types.
Status NormalizeRow(const Schema& schema, Row* row) {
  for (size_t i = 0; i < row->size(); ++i) {
    if (!(*row)[i].is_null() && (*row)[i].type() != schema.column(i).type) {
      R3_ASSIGN_OR_RETURN((*row)[i], (*row)[i].CastTo(schema.column(i).type));
    }
  }
  return Status::OK();
}

}  // namespace

Status DataDictionary::InsertLogical(const std::string& table, const Row& row) {
  R3_ASSIGN_OR_RETURN(const LogicalTable* t, Get(table));
  if (t->is_view) {
    return Status::Unsupported("cannot insert into view " + t->name);
  }
  if (row.size() != t->schema.NumColumns()) {
    return Status::InvalidArgument(
        str::Format("row for %s has %zu values, expected %zu", table.c_str(),
                    row.size(), t->schema.NumColumns()));
  }
  switch (t->kind) {
    case TableKind::kTransparent:
      return db_->InsertRow(t->name, row);
    case TableKind::kPool: {
      Row normalized = row;
      R3_RETURN_IF_ERROR(NormalizeRow(t->schema, &normalized));
      Row phys(3);
      phys[0] = Value::Str(t->name);
      phys[1] = Value::Str(EncodeVarKey(*t, normalized, t->key_columns.size()));
      phys[2] = Value::Str(EncodeVarData(*t, normalized));
      return db_->InsertRow(t->physical_table, phys);
    }
    case TableKind::kCluster: {
      Row normalized = row;
      R3_RETURN_IF_ERROR(NormalizeRow(t->schema, &normalized));
      // Read-modify-write the bundle for this cluster key.
      std::string where;
      std::vector<Value> params;
      for (size_t i = 0; i < t->cluster_key_count; ++i) {
        if (i != 0) where += " AND ";
        where += t->key_columns[i] + " = ?";
        auto idx = t->schema.IndexOf(t->key_columns[i]);
        params.push_back(normalized[idx.value()]);
      }
      R3_ASSIGN_OR_RETURN(
          rdbms::QueryResult existing,
          db_->Query("SELECT VARDATA FROM " + t->physical_table + " WHERE " +
                         where + " AND PAGENO = 0",
                     params));
      std::string blob = EncodeVarData(*t, normalized);
      if (existing.rows.empty()) {
        Row phys;
        for (size_t i = 0; i < t->cluster_key_count; ++i) {
          auto idx = t->schema.IndexOf(t->key_columns[i]);
          phys.push_back(normalized[idx.value()]);
        }
        phys.push_back(Value::Int(0));
        phys.push_back(Value::Str(blob));
        return db_->InsertRow(t->physical_table, phys);
      }
      std::string merged = existing.rows[0][0].string_value();
      merged.push_back(kRowSep);
      merged += blob;
      std::vector<Value> uparams;
      uparams.push_back(Value::Str(merged));
      for (const Value& p : params) uparams.push_back(p);
      int64_t affected = 0;
      return db_->Execute("UPDATE " + t->physical_table +
                              " SET VARDATA = ? WHERE " + where +
                              " AND PAGENO = 0",
                          uparams, nullptr, &affected);
    }
  }
  return Status::Internal("bad table kind");
}

Result<std::vector<Row>> DataDictionary::ReadLogical(
    const std::string& table, const std::vector<DictCond>& conds) const {
  R3_ASSIGN_OR_RETURN(const LogicalTable* t, Get(table));
  switch (t->kind) {
    case TableKind::kTransparent: {
      std::string sql = "SELECT * FROM " + t->name;
      std::vector<Value> params;
      for (size_t i = 0; i < conds.size(); ++i) {
        sql += i == 0 ? " WHERE " : " AND ";
        sql += conds[i].column;
        sql += " ";
        sql += CmpOpSql(conds[i].op);
        sql += " ?";
        params.push_back(conds[i].value);
      }
      R3_ASSIGN_OR_RETURN(rdbms::QueryResult res, db_->Query(sql, params));
      return std::move(res.rows);
    }
    case TableKind::kPool:
      return ReadPool(*t, conds);
    case TableKind::kCluster:
      return ReadCluster(*t, conds);
  }
  return Status::Internal("bad table kind");
}

Result<std::vector<Row>> DataDictionary::ReadPool(
    const LogicalTable& t, const std::vector<DictCond>& conds) const {
  // Push a VARKEY prefix range for leading key-column equalities.
  Row prefix_row(t.schema.NumColumns(), Value::Null());
  size_t prefix = 0;
  std::vector<bool> used(conds.size(), false);
  for (const std::string& key_col : t.key_columns) {
    bool found = false;
    for (size_t i = 0; i < conds.size(); ++i) {
      if (!used[i] && conds[i].op == CmpOp::kEq &&
          str::EqualsIgnoreCase(conds[i].column, key_col)) {
        auto idx = t.schema.IndexOf(key_col);
        prefix_row[idx.value()] = conds[i].value;
        used[i] = true;
        found = true;
        break;
      }
    }
    if (!found) break;
    ++prefix;
  }
  std::vector<const DictCond*> residual;
  for (size_t i = 0; i < conds.size(); ++i) {
    if (!used[i]) residual.push_back(&conds[i]);
  }

  std::string sql =
      "SELECT VARDATA FROM " + t.physical_table + " WHERE TABNAME = ?";
  std::vector<Value> params{Value::Str(t.name)};
  if (prefix > 0) {
    std::string lo = EncodeVarKey(t, prefix_row, prefix);
    std::string hi = lo;
    hi.push_back('\x7f');  // exclusive upper bound beyond any padding
    sql += " AND VARKEY >= ? AND VARKEY < ?";
    params.push_back(Value::Str(lo));
    params.push_back(Value::Str(hi));
  }
  R3_ASSIGN_OR_RETURN(rdbms::QueryResult res, db_->Query(sql, params));
  std::vector<Row> out;
  Row row;
  for (const Row& phys : res.rows) {
    R3_RETURN_IF_ERROR(DecodeVarData(t, phys[0].string_value(), &row));
    bool keep = true;
    for (const DictCond* c : residual) {
      auto idx = t.schema.IndexOf(c->column);
      if (!idx.ok() || !CondMatches(*c, row[idx.value()])) {
        keep = false;
        break;
      }
    }
    if (keep) out.push_back(row);
  }
  return out;
}

Result<std::vector<Row>> DataDictionary::ReadCluster(
    const LogicalTable& t, const std::vector<DictCond>& conds) const {
  // Equality on the cluster key prefix enables a point read of the bundle.
  std::string sql = "SELECT VARDATA FROM " + t.physical_table;
  std::vector<Value> params;
  std::vector<bool> used(conds.size(), false);
  size_t matched = 0;
  std::string where;
  for (size_t k = 0; k < t.cluster_key_count; ++k) {
    bool found = false;
    for (size_t i = 0; i < conds.size(); ++i) {
      if (!used[i] && conds[i].op == CmpOp::kEq &&
          str::EqualsIgnoreCase(conds[i].column, t.key_columns[k])) {
        if (!where.empty()) where += " AND ";
        where += t.key_columns[k] + " = ?";
        params.push_back(conds[i].value);
        used[i] = true;
        found = true;
        break;
      }
    }
    if (!found) break;
    ++matched;
  }
  if (matched > 0) sql += " WHERE " + where;
  R3_ASSIGN_OR_RETURN(rdbms::QueryResult res, db_->Query(sql, params));

  std::vector<const DictCond*> residual;
  for (size_t i = 0; i < conds.size(); ++i) {
    if (!used[i]) residual.push_back(&conds[i]);
  }
  std::vector<Row> out;
  Row row;
  for (const Row& phys : res.rows) {
    for (const std::string& blob : str::Split(phys[0].string_value(), kRowSep)) {
      if (blob.empty()) continue;
      R3_RETURN_IF_ERROR(DecodeVarData(t, blob, &row));
      bool keep = true;
      for (const DictCond* c : residual) {
        auto idx = t.schema.IndexOf(c->column);
        if (!idx.ok() || !CondMatches(*c, row[idx.value()])) {
          keep = false;
          break;
        }
      }
      if (keep) out.push_back(row);
    }
  }
  return out;
}

Status DataDictionary::ConvertToTransparent(const std::string& table,
                                            Release release) {
  R3_ASSIGN_OR_RETURN(const LogicalTable* tc, Get(table));
  if (tc->kind == TableKind::kTransparent) {
    return Status::InvalidArgument(table + " is already transparent");
  }
  if (tc->kind == TableKind::kCluster && !CanConvertClusterTables(release)) {
    return Status::Unsupported(
        "Release 2.2 cannot convert cluster tables to transparent");
  }
  // Materialize all logical rows before touching the physical storage.
  R3_ASSIGN_OR_RETURN(std::vector<Row> rows, ReadLogical(table, {}));

  LogicalTable& t = tables_.find(str::ToUpper(table))->second;
  TableKind old_kind = t.kind;
  std::string old_physical = t.physical_table;

  R3_RETURN_IF_ERROR(db_->catalog()->CreateTable(t.name, t.schema).status());
  R3_RETURN_IF_ERROR(
      db_->catalog()->CreateIndex(t.name + "~0", t.name, t.key_columns, true).status());
  for (const Row& row : rows) {
    R3_RETURN_IF_ERROR(db_->InsertRow(t.name, row));
  }
  // Remove the encapsulated image.
  int64_t affected = 0;
  if (old_kind == TableKind::kPool) {
    R3_RETURN_IF_ERROR(
        db_->Execute("DELETE FROM " + old_physical + " WHERE TABNAME = ?",
                     {Value::Str(t.name)}, nullptr, &affected));
  } else {
    R3_RETURN_IF_ERROR(
        db_->Execute("DELETE FROM " + old_physical, {}, nullptr, &affected));
  }
  t.kind = TableKind::kTransparent;
  t.physical_table = t.name;
  R3_RETURN_IF_ERROR(db_->Execute(
      "UPDATE DD02L SET TABCLASS = 'TRANSP', SQLTAB = ? WHERE TABNAME = ?",
      {Value::Str(t.name), Value::Str(t.name)}, nullptr, &affected));
  return db_->Analyze(t.name);
}

}  // namespace appsys
}  // namespace r3
