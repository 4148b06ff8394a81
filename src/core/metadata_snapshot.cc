#include "core/metadata_snapshot.h"

#include "core/seismic_schema.h"
#include "io/columnar_file.h"
#include "io/file_io.h"

namespace dex {

Status SaveSnapshot(const mseed::ScanResult& scan, const std::string& path) {
  DEX_ASSIGN_OR_RETURN(TablePtr f_table, BuildFileTable(scan));
  DEX_ASSIGN_OR_RETURN(TablePtr r_table, BuildRecordTable(scan));
  return WriteFileAtomic(path,
                         EncodeColumnarTables({f_table.get(), r_table.get()}));
}

Result<mseed::ScanResult> LoadSnapshot(const std::string& path) {
  std::string data;
  DEX_RETURN_NOT_OK(ReadFileToString(path, &data));
  auto tables = DecodeColumnarTables(
      data, {{kFileTableName, MakeFileSchema()},
             {kRecordTableName, MakeRecordSchema()}});
  if (!tables.ok()) {
    return Status::Corruption("snapshot '" + path +
                              "': " + tables.status().message());
  }
  return ScanResultFromTables(*(*tables)[0], *(*tables)[1]);
}

}  // namespace dex
