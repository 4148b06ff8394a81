#include "io/columnar_file.h"

#include <cstring>
#include <string_view>

#include "common/fnv.h"
#include "storage/schema.h"

namespace dex {

namespace {

constexpr char kMagic[8] = {'D', 'X', 'C', 'O', 'L', '0', '0', '1'};
constexpr char kEndMark[8] = {'D', 'X', 'C', 'O', 'L', 'E', 'N', 'D'};

// Frame encodings. The ids are part of the on-disk format; add new ones at
// the end and bump the magic if an existing id changes meaning.
constexpr uint64_t kEncConstI64 = 0;   // all values equal: one i64
constexpr uint64_t kEncStrideI64 = 1;  // arithmetic progression: base, stride
constexpr uint64_t kEncRawI64 = 2;     // n * 8 bytes
constexpr uint64_t kEncConstF64 = 3;   // all values equal: one f64
constexpr uint64_t kEncRawF64 = 4;     // n * 8 bytes
constexpr uint64_t kEncString = 5;     // dictionary + (const code | raw codes)

// Structural sanity bounds: a corrupt length field must fail fast instead of
// driving a multi-gigabyte allocation.
constexpr uint64_t kMaxFields = 4096;
constexpr uint64_t kMaxRows = 1ull << 40;

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::string* out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutStr(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  Status Need(size_t n) const {
    if (pos_ > data_.size() || n > data_.size() - pos_) {
      return Status::Corruption("columnar file truncated at offset " +
                                std::to_string(pos_));
    }
    return Status::OK();
  }

  Result<uint64_t> U64() {
    DEX_RETURN_NOT_OK(Need(8));
    uint64_t v;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }
  Result<int64_t> I64() {
    DEX_ASSIGN_OR_RETURN(uint64_t v, U64());
    return static_cast<int64_t>(v);
  }
  Result<double> F64() {
    DEX_RETURN_NOT_OK(Need(8));
    double v;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }
  Result<std::string> Str() {
    DEX_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (n > data_.size()) {
      return Status::Corruption("implausible string length in columnar file");
    }
    DEX_RETURN_NOT_OK(Need(n));
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  Status Skip(size_t n) {
    DEX_RETURN_NOT_OK(Need(n));
    pos_ += n;
    return Status::OK();
  }
  size_t pos() const { return pos_; }
  const char* Here() const { return data_.data() + pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

void EncodeI64Frame(const Column& col, size_t n, uint64_t* encoding,
                    std::string* payload) {
  const int64_t* v = col.data_i64();
  bool constant = true;
  for (size_t i = 1; i < n && constant; ++i) constant = v[i] == v[0];
  if (n > 0 && constant) {
    *encoding = kEncConstI64;
    PutI64(payload, v[0]);
    return;
  }
  if (n >= 2) {
    const int64_t stride = v[1] - v[0];
    bool arithmetic = true;
    for (size_t i = 2; i < n && arithmetic; ++i) {
      arithmetic = v[i] - v[i - 1] == stride;
    }
    if (arithmetic) {
      *encoding = kEncStrideI64;
      PutI64(payload, v[0]);
      PutI64(payload, stride);
      return;
    }
  }
  *encoding = kEncRawI64;
  payload->append(reinterpret_cast<const char*>(v), n * sizeof(int64_t));
}

void EncodeF64Frame(const Column& col, size_t n, uint64_t* encoding,
                    std::string* payload) {
  const double* v = col.data_f64();
  bool constant = n > 0;
  for (size_t i = 1; i < n && constant; ++i) {
    // Bit-compare: NaNs and signed zeros must round-trip exactly.
    constant = std::memcmp(&v[i], &v[0], sizeof(double)) == 0;
  }
  if (constant) {
    *encoding = kEncConstF64;
    PutF64(payload, v[0]);
    return;
  }
  *encoding = kEncRawF64;
  payload->append(reinterpret_cast<const char*>(v), n * sizeof(double));
}

void EncodeStringFrame(const Column& col, size_t n, std::string* payload) {
  const auto& dict = *col.dict();
  PutU64(payload, dict.size());
  for (size_t i = 0; i < dict.size(); ++i) {
    PutStr(payload, dict.At(static_cast<int32_t>(i)));
  }
  const int32_t* codes = col.codes();
  bool constant = n > 0;
  for (size_t i = 1; i < n && constant; ++i) constant = codes[i] == codes[0];
  PutU64(payload, constant ? 1 : 0);
  if (constant) {
    PutI64(payload, codes[0]);
  } else {
    payload->append(reinterpret_cast<const char*>(codes),
                    n * sizeof(int32_t));
  }
}

Status DecodeI64Frame(uint64_t encoding, std::string_view payload, size_t n,
                      Column* col) {
  Cursor cur(payload);
  if (encoding == kEncConstI64) {
    DEX_ASSIGN_OR_RETURN(int64_t v, cur.I64());
    for (size_t i = 0; i < n; ++i) col->AppendInt64(v);
  } else if (encoding == kEncStrideI64) {
    DEX_ASSIGN_OR_RETURN(int64_t base, cur.I64());
    DEX_ASSIGN_OR_RETURN(int64_t stride, cur.I64());
    int64_t v = base;
    for (size_t i = 0; i < n; ++i, v += stride) col->AppendInt64(v);
  } else if (encoding == kEncRawI64) {
    if (payload.size() != n * sizeof(int64_t)) {
      return Status::Corruption("raw int64 frame size mismatch");
    }
    col->Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      int64_t v;
      std::memcpy(&v, payload.data() + i * sizeof(int64_t), sizeof(int64_t));
      col->AppendInt64(v);
    }
  } else {
    return Status::Corruption("unknown int64 frame encoding " +
                              std::to_string(encoding));
  }
  return Status::OK();
}

Status DecodeF64Frame(uint64_t encoding, std::string_view payload, size_t n,
                      Column* col) {
  Cursor cur(payload);
  if (encoding == kEncConstF64) {
    DEX_ASSIGN_OR_RETURN(double v, cur.F64());
    for (size_t i = 0; i < n; ++i) col->AppendDouble(v);
  } else if (encoding == kEncRawF64) {
    if (payload.size() != n * sizeof(double)) {
      return Status::Corruption("raw double frame size mismatch");
    }
    col->Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      double v;
      std::memcpy(&v, payload.data() + i * sizeof(double), sizeof(double));
      col->AppendDouble(v);
    }
  } else {
    return Status::Corruption("unknown double frame encoding " +
                              std::to_string(encoding));
  }
  return Status::OK();
}

Status DecodeStringFrame(std::string_view payload, size_t n, Column* col) {
  Cursor cur(payload);
  DEX_ASSIGN_OR_RETURN(uint64_t dict_n, cur.U64());
  if (dict_n > payload.size()) {
    return Status::Corruption("implausible dictionary size");
  }
  std::vector<std::string> dict;
  dict.reserve(dict_n);
  for (uint64_t i = 0; i < dict_n; ++i) {
    DEX_ASSIGN_OR_RETURN(std::string s, cur.Str());
    dict.push_back(std::move(s));
  }
  DEX_ASSIGN_OR_RETURN(uint64_t constant, cur.U64());
  if (constant > 1) return Status::Corruption("bad string frame const flag");
  auto check_code = [&](int64_t code) -> Status {
    if (code < 0 || static_cast<uint64_t>(code) >= dict_n) {
      return Status::Corruption("string code out of dictionary range");
    }
    return Status::OK();
  };
  if (constant == 1) {
    DEX_ASSIGN_OR_RETURN(int64_t code, cur.I64());
    if (n > 0) DEX_RETURN_NOT_OK(check_code(code));
    for (size_t i = 0; i < n; ++i) col->AppendString(dict[code]);
  } else {
    DEX_RETURN_NOT_OK(cur.Need(n * sizeof(int32_t)));
    col->Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      int32_t code;
      std::memcpy(&code, cur.Here() + i * sizeof(int32_t), sizeof(int32_t));
      DEX_RETURN_NOT_OK(check_code(code));
      col->AppendString(dict[code]);
    }
  }
  return Status::OK();
}

/// Validates magic + header checksum and parses the header. On success the
/// cursor is positioned at the first frame and `meta`/`table_name`/`schema`/
/// `num_rows` are filled.
Status ParseValidatedHeader(std::string_view bytes, Cursor* cur,
                            ColumnarFileMeta* meta, std::string* table_name,
                            SchemaPtr* schema, uint64_t* num_rows) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad columnar file magic/version");
  }
  DEX_RETURN_NOT_OK(cur->Skip(sizeof(kMagic)));
  ColumnarFileMeta m;
  DEX_ASSIGN_OR_RETURN(m.source_uri, cur->Str());
  DEX_ASSIGN_OR_RETURN(m.predicate_repr, cur->Str());
  DEX_ASSIGN_OR_RETURN(uint64_t pure, cur->U64());
  if (pure > 1) return Status::Corruption("bad window flag");
  m.window_pure = pure == 1;
  DEX_ASSIGN_OR_RETURN(m.window_lo, cur->F64());
  DEX_ASSIGN_OR_RETURN(m.window_hi, cur->F64());
  DEX_ASSIGN_OR_RETURN(m.source_size_bytes, cur->U64());
  DEX_ASSIGN_OR_RETURN(m.source_mtime_ms, cur->I64());
  DEX_ASSIGN_OR_RETURN(m.table_byte_size, cur->U64());
  DEX_ASSIGN_OR_RETURN(*table_name, cur->Str());
  DEX_ASSIGN_OR_RETURN(uint64_t num_fields, cur->U64());
  if (num_fields > kMaxFields) {
    return Status::Corruption("implausible field count");
  }
  auto s = std::make_shared<Schema>();
  for (uint64_t i = 0; i < num_fields; ++i) {
    Field f;
    DEX_ASSIGN_OR_RETURN(f.name, cur->Str());
    DEX_ASSIGN_OR_RETURN(uint64_t type, cur->U64());
    if (type > static_cast<uint64_t>(DataType::kBool)) {
      return Status::Corruption("unknown column type " + std::to_string(type));
    }
    f.type = static_cast<DataType>(type);
    DEX_ASSIGN_OR_RETURN(f.qualifier, cur->Str());
    s->AddField(f);
  }
  DEX_ASSIGN_OR_RETURN(*num_rows, cur->U64());
  if (*num_rows > kMaxRows) return Status::Corruption("implausible row count");
  const uint64_t want = Fnv1a(bytes.data(), cur->pos());
  DEX_ASSIGN_OR_RETURN(uint64_t got, cur->U64());
  if (want != got) {
    return Status::Corruption("columnar header checksum mismatch");
  }
  *schema = std::move(s);
  if (meta != nullptr) *meta = std::move(m);
  return Status::OK();
}

/// Decodes the one table that starts at `bytes[0]` and sets `*end` to the
/// offset just past its end marker. Whatever follows is the caller's.
Result<TablePtr> DecodeOneTable(std::string_view bytes, ColumnarFileMeta* meta,
                                size_t* end) {
  Cursor cur(bytes);
  std::string table_name;
  SchemaPtr schema;
  uint64_t num_rows = 0;
  DEX_RETURN_NOT_OK(
      ParseValidatedHeader(bytes, &cur, meta, &table_name, &schema, &num_rows));

  // Validate every frame checksum before materializing anything: a decode
  // must be all-or-nothing, never partially trusted rows.
  auto table = std::make_shared<Table>(table_name, schema);
  for (size_t c = 0; c < static_cast<size_t>(schema->num_fields()); ++c) {
    DEX_ASSIGN_OR_RETURN(uint64_t encoding, cur.U64());
    DEX_ASSIGN_OR_RETURN(uint64_t payload_bytes, cur.U64());
    if (payload_bytes > bytes.size()) {
      return Status::Corruption("implausible frame length");
    }
    DEX_RETURN_NOT_OK(cur.Need(payload_bytes));
    const std::string_view payload = bytes.substr(cur.pos(), payload_bytes);
    DEX_RETURN_NOT_OK(cur.Skip(payload_bytes));
    DEX_ASSIGN_OR_RETURN(uint64_t got, cur.U64());
    if (got != Fnv1a(payload.data(), payload.size())) {
      return Status::Corruption("frame checksum mismatch in column '" +
                                schema->field(c).name + "'");
    }
    Column* col = table->mutable_column(c);
    switch (schema->field(c).type) {
      case DataType::kDouble:
        DEX_RETURN_NOT_OK(DecodeF64Frame(encoding, payload, num_rows, col));
        break;
      case DataType::kString:
        if (encoding != kEncString) {
          return Status::Corruption("string column with non-string encoding");
        }
        DEX_RETURN_NOT_OK(DecodeStringFrame(payload, num_rows, col));
        break;
      default:
        DEX_RETURN_NOT_OK(DecodeI64Frame(encoding, payload, num_rows, col));
        break;
    }
  }

  const uint64_t want = Fnv1a(bytes.data(), cur.pos());
  DEX_ASSIGN_OR_RETURN(uint64_t got, cur.U64());
  if (want != got) {
    return Status::Corruption("columnar file footer checksum mismatch");
  }
  DEX_RETURN_NOT_OK(cur.Need(sizeof(kEndMark)));
  if (std::memcmp(cur.Here(), kEndMark, sizeof(kEndMark)) != 0) {
    return Status::Corruption("columnar file end marker missing");
  }
  DEX_RETURN_NOT_OK(table->CommitAppendedRows(num_rows));
  *end = cur.pos() + sizeof(kEndMark);
  return table;
}

bool SameSchema(const Schema& a, const Schema& b) {
  if (a.num_fields() != b.num_fields()) return false;
  for (size_t i = 0; i < a.num_fields(); ++i) {
    const Field& x = a.field(i);
    const Field& y = b.field(i);
    if (x.name != y.name || x.type != y.type || x.qualifier != y.qualifier) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string EncodeColumnarFile(const Table& table,
                               const ColumnarFileMeta& meta) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutStr(&out, meta.source_uri);
  PutStr(&out, meta.predicate_repr);
  PutU64(&out, meta.window_pure ? 1 : 0);
  PutF64(&out, meta.window_lo);
  PutF64(&out, meta.window_hi);
  PutU64(&out, meta.source_size_bytes);
  PutI64(&out, meta.source_mtime_ms);
  PutU64(&out, meta.table_byte_size != 0 ? meta.table_byte_size
                                         : table.ByteSize());
  PutStr(&out, table.name());
  PutU64(&out, table.num_columns());
  for (size_t i = 0; i < table.num_columns(); ++i) {
    const Field& f = table.schema()->field(i);
    PutStr(&out, f.name);
    PutU64(&out, static_cast<uint64_t>(f.type));
    PutStr(&out, f.qualifier);
  }
  PutU64(&out, table.num_rows());
  PutU64(&out, Fnv1a(out.data(), out.size()));  // header checksum

  const size_t n = table.num_rows();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = *table.column(c);
    uint64_t encoding = 0;
    std::string payload;
    switch (col.type()) {
      case DataType::kDouble:
        EncodeF64Frame(col, n, &encoding, &payload);
        break;
      case DataType::kString:
        encoding = kEncString;
        EncodeStringFrame(col, n, &payload);
        break;
      default:  // int64-backed: kInt64, kTimestamp, kBool
        EncodeI64Frame(col, n, &encoding, &payload);
        break;
    }
    PutU64(&out, encoding);
    PutU64(&out, payload.size());
    out.append(payload);
    PutU64(&out, Fnv1a(payload.data(), payload.size()));  // frame checksum
  }

  PutU64(&out, Fnv1a(out.data(), out.size()));  // whole-file checksum
  out.append(kEndMark, sizeof(kEndMark));
  return out;
}

Status PeekColumnarMeta(std::string_view bytes, ColumnarFileMeta* meta) {
  Cursor cur(bytes);
  std::string table_name;
  SchemaPtr schema;
  uint64_t num_rows = 0;
  return ParseValidatedHeader(bytes, &cur, meta, &table_name, &schema,
                              &num_rows);
}

Result<TablePtr> DecodeColumnarFile(std::string_view bytes,
                                    ColumnarFileMeta* meta) {
  size_t end = 0;
  DEX_ASSIGN_OR_RETURN(TablePtr table, DecodeOneTable(bytes, meta, &end));
  if (end != bytes.size()) {
    return Status::Corruption("trailing bytes after columnar file end marker");
  }
  return table;
}

std::string EncodeColumnarTables(const std::vector<const Table*>& tables) {
  std::string out;
  for (const Table* table : tables) out += EncodeColumnarFile(*table, {});
  return out;
}

Result<std::vector<TablePtr>> DecodeColumnarTables(
    std::string_view bytes, const std::vector<ColumnarTableSpec>& expected) {
  std::vector<TablePtr> tables;
  tables.reserve(expected.size());
  for (const ColumnarTableSpec& spec : expected) {
    size_t end = 0;
    DEX_ASSIGN_OR_RETURN(TablePtr table,
                         DecodeOneTable(bytes, nullptr, &end));
    if (table->name() != spec.name ||
        !SameSchema(*table->schema(), *spec.schema)) {
      return Status::Corruption("expected table '" + spec.name + "' with " +
                                spec.schema->ToString() + ", found '" +
                                table->name() + "' with " +
                                table->schema()->ToString());
    }
    tables.push_back(std::move(table));
    bytes.remove_prefix(end);
  }
  if (!bytes.empty()) {
    return Status::Corruption("trailing bytes after the last columnar table");
  }
  return tables;
}

}  // namespace dex
