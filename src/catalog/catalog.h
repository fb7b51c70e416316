// The BigQuery catalog: datasets, table definitions, and connections.
//
// The first key idea of BigLake tables (Sec 3) is that the *catalog entry*
// — not the self-describing files — is the source of truth for an external
// table: schema, storage binding, the connection used for delegated access,
// and the attached fine-grained policies all live here, which is what makes
// uniform governance enforceable in the Read API.
//
// Table kinds map to the paper:
//   kManaged        — BigQuery managed storage (Sec 2).
//   kExternalLegacy — pre-BigLake read-only external tables: no connection,
//                     no fine-grained security, no metadata caching (Sec 2.1).
//   kBigLake        — BigLake tables over open formats on object storage
//                     (Sec 3.1-3.4).
//   kBigLakeManaged — BLMTs: fully managed, Iceberg-exportable (Sec 3.5).
//   kObjectTable    — unstructured-data object tables (Sec 4.1).

#ifndef BIGLAKE_CATALOG_CATALOG_H_
#define BIGLAKE_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "columnar/types.h"
#include "objstore/objstore.h"
#include "security/security.h"

namespace biglake {

enum class TableKind {
  kManaged,
  kExternalLegacy,
  kBigLake,
  kBigLakeManaged,
  kObjectTable,
};

const char* TableKindName(TableKind kind);

/// The fixed schema of every Object table (Sec 4.1): one row per object,
/// attribute columns mirroring the object store metadata.
SchemaPtr ObjectTableSchema();

struct TableDef {
  std::string dataset;
  std::string name;
  TableKind kind = TableKind::kBigLake;
  SchemaPtr schema;

  /// Storage binding (unused for kManaged).
  std::string connection;  // delegated-access connection name
  CloudLocation location;  // where the data physically lives
  std::string bucket;
  std::string prefix;
  std::vector<std::string> partition_columns;
  /// BigLake managed tables: storage optimization sorts rewritten rows by
  /// these columns (reclustering), so later scans prune better.
  std::vector<std::string> clustering;

  /// Governance.
  IamPolicy iam;       // who may query/modify the table at all
  TablePolicy policy;  // row/column fine-grained rules

  /// BigLake metadata caching (Sec 3.3); legacy external tables have none.
  bool metadata_cache_enabled = true;

  std::string id() const { return dataset + "." + name; }
  bool UsesObjectStorage() const { return kind != TableKind::kManaged; }
};

/// The control-plane catalog. Table and connection metadata is globally
/// visible (the paper keeps the catalog on GCP even for Omni regions,
/// Sec 5.4), while the data it describes may live in any cloud.
class Catalog {
 public:
  Status CreateDataset(const std::string& name);
  bool HasDataset(const std::string& name) const;

  Status CreateTable(TableDef def);
  Result<const TableDef*> GetTable(const std::string& table_id) const;
  Result<TableDef*> MutableTable(const std::string& table_id);
  Status DropTable(const std::string& table_id);
  std::vector<std::string> ListTables(const std::string& dataset) const;

  Status CreateConnection(Connection connection);
  Result<const Connection*> GetConnection(const std::string& name) const;

 private:
  std::map<std::string, std::map<std::string, TableDef>> datasets_;
  std::map<std::string, Connection> connections_;
};

}  // namespace biglake

#endif  // BIGLAKE_CATALOG_CATALOG_H_
