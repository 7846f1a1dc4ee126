#ifndef ROTOM_UTIL_CSV_H_
#define ROTOM_UTIL_CSV_H_

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace rotom {

/// A parsed CSV table: a header row plus data rows of equal width.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// Parses RFC-4180-ish CSV text (quoted fields, embedded commas/newlines,
/// doubled quotes). The first record is taken as the header; a data row of
/// another width is an error ("ragged CSV row N: expected X fields, got Y";
/// 1-based data rows).
StatusOr<CsvTable> ParseCsv(const std::string& text);

/// Serializes a table back to CSV, quoting fields that need it.
std::string WriteCsv(const CsvTable& table);

/// Reads and parses a CSV file from disk; errors are prefixed "<path>: ".
StatusOr<CsvTable> ReadCsvFile(const std::string& path);

/// Reads and parses a CSV file through a process-wide cache keyed by the
/// file's canonical path (realpath) and validated against its current
/// size+mtime. A trainer and an eval context opening the same file share one
/// parsed table instead of re-reading and re-validating it; a file that
/// changed on disk is transparently re-parsed. Hits and misses are counted
/// in the obs registry (`csv_cache.hits` / `csv_cache.misses`).
///
/// Thread-safety: the cache is mutex-guarded; the returned table is
/// immutable and may be shared freely across threads.
StatusOr<std::shared_ptr<const CsvTable>> ReadCsvFileShared(
    const std::string& path);

/// Writes a table to disk as CSV.
Status WriteCsvFile(const std::string& path, const CsvTable& table);

/// Incremental row-at-a-time CSV reader for streaming sources: parses with
/// the same record reader as ParseCsv but holds only the current record
/// in memory, so a source can iterate files larger than RAM and re-open
/// them for another pass (stream::CsvFileSource). Width is validated per
/// row against the header with ParseCsv's error, prefixed "<path>: ".
///
/// Thread-safety: a reader is single-threaded; create one per stream stage.
class CsvRowReader {
 public:
  CsvRowReader() = default;

  /// (Re)opens `path` and parses the header record. Any previous position
  /// is discarded — calling Open again rewinds to the first data row.
  Status Open(const std::string& path);

  const std::vector<std::string>& header() const { return header_; }
  const std::string& path() const { return path_; }

  /// Parses the next data row into *row. Returns true when a row was read,
  /// false at end of file, or an error Status for unterminated quotes,
  /// ragged rows, or a reader that was never opened.
  StatusOr<bool> NextRow(std::vector<std::string>* row);

  /// 1-based count of data rows returned since the last Open.
  int64_t rows_read() const { return rows_read_; }

 private:
  std::string path_;
  std::ifstream in_;
  bool open_ = false;
  std::vector<std::string> header_;
  int64_t rows_read_ = 0;
};

}  // namespace rotom

#endif  // ROTOM_UTIL_CSV_H_
