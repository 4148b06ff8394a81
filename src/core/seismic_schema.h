#ifndef DEX_CORE_SEISMIC_SCHEMA_H_
#define DEX_CORE_SEISMIC_SCHEMA_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "mseed/reader.h"
#include "mseed/scanner.h"
#include "storage/table.h"

namespace dex {

/// The paper's normalized schema (§3/§4): two metadata tables and one actual
/// data table.
///   F(uri, network, station, channel, location, size_bytes, mtime, n_records)
///   R(uri, record_id, start_time, end_time, sample_rate, n_samples)
///   D(uri, record_id, sample_time, sample_value)
/// M = {F, R}, A = {D}.
inline constexpr const char* kFileTableName = "F";
inline constexpr const char* kRecordTableName = "R";
inline constexpr const char* kDataTableName = "D";
/// Derived-metadata table (§5 "Extending metadata"); member of M.
inline constexpr const char* kDerivedTableName = "DM";

SchemaPtr MakeFileSchema();
SchemaPtr MakeRecordSchema();
SchemaPtr MakeDataSchema();
SchemaPtr MakeDerivedSchema();

/// \brief Builds the F table from scanned file metadata.
Result<TablePtr> BuildFileTable(const mseed::ScanResult& scan);

/// \brief Builds the R table from scanned record metadata.
Result<TablePtr> BuildRecordTable(const mseed::ScanResult& scan);

/// \brief Inverse of BuildFileTable/BuildRecordTable: reconstructs a
/// ScanResult from the catalog's current F and R tables — the baseline a
/// delta Refresh() reuses for unchanged files, and what LoadSnapshot()
/// returns from a persisted snapshot.
mseed::ScanResult ScanResultFromTables(const Table& f_table,
                                       const Table& r_table);

/// \brief Reserves each column of a D-schema table for `n` rows in total.
void ReserveDataRows(Table* data_table, size_t n);

/// \brief Appends one file's decoded records to a D-schema table. Record
/// `i` of `records` gets record_id `i` (its index within the file). On an
/// empty table the columns are reserved once at the file's sample total.
Status AppendSamplesToDataTable(const std::string& uri,
                                const std::vector<mseed::DecodedRecord>& records,
                                Table* data_table);

}  // namespace dex

#endif  // DEX_CORE_SEISMIC_SCHEMA_H_
