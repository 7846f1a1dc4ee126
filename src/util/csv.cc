#include "util/csv.h"

#include <sys/stat.h>

#include <climits>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "obs/metrics.h"

namespace rotom {

namespace {

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteField(const std::string& field) {
  if (!NeedsQuoting(field)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

// Reads one RFC-4180-ish record (quoted fields, embedded commas/newlines,
// doubled quotes; a \r is dropped outside quotes) of any width. Returns
// false at end of input. Input that ends without a newline still closes a
// final record unless nothing but \r was left.
StatusOr<bool> ReadCsvRecord(std::istream& in,
                             std::vector<std::string>* record) {
  std::streambuf& buf = *in.rdbuf();
  using Traits = std::streambuf::traits_type;
  record->clear();
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  for (int ci = buf.sbumpc(); ci != Traits::eof(); ci = buf.sbumpc()) {
    const char c = Traits::to_char_type(ci);
    if (in_quotes) {
      if (c != '"') {
        field += c;
      } else if (buf.sgetc() == '"') {
        field += '"';
        buf.sbumpc();
      } else {
        in_quotes = false;
      }
    } else if (c == '"' && !field_started) {
      in_quotes = true;
      field_started = true;
    } else if (c == ',') {
      record->push_back(std::move(field));
      field.clear();
      field_started = false;
    } else if (c == '\n') {
      record->push_back(std::move(field));
      return true;
    } else if (c != '\r') {  // \r\n is handled by the \n branch
      field += c;
      field_started = true;
    }
  }
  if (in_quotes) return Status::Error("unterminated quoted field");
  if (!field_started && record->empty()) return false;
  record->push_back(std::move(field));
  return true;
}

// The one width check of a data row against its header.
Status CheckWidth(const std::vector<std::string>& row, size_t width,
                  int64_t row_number) {
  if (row.size() == width) return Status::Ok();
  return Status::Error("ragged CSV row " + std::to_string(row_number) +
                       ": expected " + std::to_string(width) +
                       " fields, got " + std::to_string(row.size()));
}

// A header record, then width-checked data rows until end of input.
StatusOr<CsvTable> ReadCsvTable(std::istream& in) {
  CsvTable table;
  auto got = ReadCsvRecord(in, &table.header);
  if (!got.ok()) return got.status();
  if (!got.value()) return Status::Error("empty CSV input");
  std::vector<std::string> row;
  while (true) {
    got = ReadCsvRecord(in, &row);
    if (!got.ok()) return got.status();
    if (!got.value()) return table;
    const int64_t row_number = static_cast<int64_t>(table.rows.size()) + 1;
    if (Status s = CheckWidth(row, table.header.size(), row_number); !s.ok())
      return s;
    table.rows.push_back(std::move(row));
  }
}

}  // namespace

StatusOr<CsvTable> ParseCsv(const std::string& text) {
  std::istringstream in(text);
  return ReadCsvTable(in);
}

std::string WriteCsv(const CsvTable& table) {
  std::ostringstream out;
  auto write_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ',';
      out << QuoteField(row[i]);
    }
    out << '\n';
  };
  write_row(table.header);
  for (const auto& row : table.rows) write_row(row);
  return out.str();
}

StatusOr<CsvTable> ReadCsvFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Error("cannot open " + path);
  auto table = ReadCsvTable(in);
  if (!table.ok()) return Status::Error(path + ": " + table.status().message());
  return table;
}

namespace {

// One cached parse of a CSV file, pinned to the stat() identity it was
// read under so edits on disk invalidate the entry.
struct CachedCsv {
  int64_t size = 0;
  int64_t mtime = 0;
  std::shared_ptr<const CsvTable> table;
};

std::string CanonicalPath(const std::string& path) {
  char buf[PATH_MAX];
  if (::realpath(path.c_str(), buf) != nullptr) return std::string(buf);
  // Nonexistent paths keep their spelling; ReadCsvFile reports the error.
  return path;
}

}  // namespace

StatusOr<std::shared_ptr<const CsvTable>> ReadCsvFileShared(
    const std::string& path) {
  static std::mutex mu;
  static std::map<std::string, CachedCsv>* cache =
      new std::map<std::string, CachedCsv>();

  const std::string key = CanonicalPath(path);
  struct stat st {};
  const bool have_stat = ::stat(key.c_str(), &st) == 0;

  if (have_stat) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache->find(key);
    if (it != cache->end() &&
        it->second.size == static_cast<int64_t>(st.st_size) &&
        it->second.mtime == static_cast<int64_t>(st.st_mtime)) {
      obs::GetCounter("csv_cache.hits").Add();
      return it->second.table;
    }
  }

  obs::GetCounter("csv_cache.misses").Add();
  auto table = ReadCsvFile(key);
  if (!table.ok()) return table.status();
  CachedCsv entry;
  entry.size = have_stat ? static_cast<int64_t>(st.st_size) : 0;
  entry.mtime = have_stat ? static_cast<int64_t>(st.st_mtime) : 0;
  entry.table = std::make_shared<const CsvTable>(std::move(table.value()));
  std::shared_ptr<const CsvTable> result = entry.table;
  {
    std::lock_guard<std::mutex> lock(mu);
    (*cache)[key] = std::move(entry);
  }
  return result;
}

Status CsvRowReader::Open(const std::string& path) {
  if (in_.is_open()) in_.close();
  in_.clear();
  path_ = path;
  open_ = false;
  header_.clear();
  rows_read_ = 0;
  in_.open(path, std::ios::binary);
  if (!in_) return Status::Error("cannot open " + path);
  open_ = true;
  std::vector<std::string> record;
  auto got = ReadCsvRecord(in_, &record);
  if (!got.ok()) return Status::Error(path + ": " + got.status().message());
  if (!got.value()) return Status::Error(path + ": empty CSV input");
  header_ = std::move(record);
  return Status::Ok();
}

StatusOr<bool> CsvRowReader::NextRow(std::vector<std::string>* row) {
  if (!open_) return Status::Error("CsvRowReader: no file open");
  auto got = ReadCsvRecord(in_, row);
  if (!got.ok()) return Status::Error(path_ + ": " + got.status().message());
  if (!got.value()) return false;
  ++rows_read_;
  if (Status s = CheckWidth(*row, header_.size(), rows_read_); !s.ok())
    return Status::Error(path_ + ": " + s.message());
  return true;
}

Status WriteCsvFile(const std::string& path, const CsvTable& table) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Error("cannot open " + path + " for writing");
  out << WriteCsv(table);
  if (!out) return Status::Error("write failed for " + path);
  return Status::Ok();
}

}  // namespace rotom
