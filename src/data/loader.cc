#include "data/loader.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "text/records.h"
#include "util/csv.h"

namespace rotom {
namespace data {

namespace {

StatusOr<int64_t> FindColumn(const CsvTable& table, const std::string& name) {
  for (size_t i = 0; i < table.header.size(); ++i) {
    if (table.header[i] == name) return static_cast<int64_t>(i);
  }
  return Status::Error("column '" + name + "' not found");
}

// Every loader below indexes row[col] for header-derived columns, which is
// out of bounds on a ragged row. The CSV reader already rejects ragged rows
// with this same message; the check here keeps the indexing safe on its
// own rather than relying on the parser — fail with the offending row
// instead of reading past the end. Row numbers are 1-based data rows (the
// header is row 0).
Status CheckRectangular(const CsvTable& table, const std::string& what) {
  for (size_t r = 0; r < table.rows.size(); ++r) {
    if (table.rows[r].size() != table.header.size()) {
      return Status::Error(what + ": ragged CSV row " + std::to_string(r + 1) +
                           ": expected " + std::to_string(table.header.size()) +
                           " fields, got " +
                           std::to_string(table.rows[r].size()));
    }
  }
  return Status::Ok();
}

text::Record RowToRecord(const CsvTable& table,
                         const std::vector<std::string>& row,
                         int64_t skip_column) {
  text::Record record;
  for (size_t c = 0; c < row.size(); ++c) {
    if (static_cast<int64_t>(c) == skip_column) continue;
    record.fields.emplace_back(table.header[c], row[c]);
  }
  return record;
}

}  // namespace

StatusOr<std::vector<Example>> LoadTextClsCsv(
    const std::string& path, const std::string& text_column,
    const std::string& label_column, std::vector<std::string>* label_names) {
  auto parsed = ReadCsvFileShared(path);
  if (!parsed.ok()) return parsed.status();
  const CsvTable& table = *parsed.value();
  auto text_col = FindColumn(table, text_column);
  if (!text_col.ok()) return text_col.status();
  auto label_col = FindColumn(table, label_column);
  if (!label_col.ok()) return label_col.status();
  if (auto s = CheckRectangular(table, path); !s.ok()) return s;

  std::map<std::string, int64_t> label_ids;
  std::vector<Example> out;
  out.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    const std::string& label = row[label_col.value()];
    auto [it, inserted] =
        label_ids.emplace(label, static_cast<int64_t>(label_ids.size()));
    if (inserted && label_names != nullptr) label_names->push_back(label);
    out.push_back({row[text_col.value()], it->second});
  }
  return out;
}

StatusOr<std::vector<Example>> LoadEmPairsCsv(const EmCsvSpec& spec) {
  auto left = ReadCsvFileShared(spec.left_table_path);
  if (!left.ok()) return left.status();
  auto right = ReadCsvFileShared(spec.right_table_path);
  if (!right.ok()) return right.status();
  auto pairs = ReadCsvFileShared(spec.pairs_path);
  if (!pairs.ok()) return pairs.status();

  auto index_table = [&](const CsvTable& table, const std::string& path)
      -> StatusOr<std::unordered_map<std::string, std::string>> {
    auto id_col = FindColumn(table, spec.id_column);
    if (!id_col.ok()) return id_col.status();
    if (auto s = CheckRectangular(table, path); !s.ok()) return s;
    std::unordered_map<std::string, std::string> by_id;
    for (const auto& row : table.rows) {
      by_id[row[id_col.value()]] =
          text::SerializeRecord(RowToRecord(table, row, id_col.value()));
    }
    return by_id;
  };
  auto left_by_id = index_table(*left.value(), spec.left_table_path);
  if (!left_by_id.ok()) return left_by_id.status();
  auto right_by_id = index_table(*right.value(), spec.right_table_path);
  if (!right_by_id.ok()) return right_by_id.status();

  const CsvTable& pair_table = *pairs.value();
  auto lcol = FindColumn(pair_table, spec.pair_left_column);
  if (!lcol.ok()) return lcol.status();
  auto rcol = FindColumn(pair_table, spec.pair_right_column);
  if (!rcol.ok()) return rcol.status();
  auto ycol = FindColumn(pair_table, spec.pair_label_column);
  if (!ycol.ok()) return ycol.status();
  if (auto s = CheckRectangular(pair_table, spec.pairs_path); !s.ok())
    return s;

  std::vector<Example> out;
  out.reserve(pair_table.rows.size());
  for (const auto& row : pair_table.rows) {
    auto lit = left_by_id.value().find(row[lcol.value()]);
    auto rit = right_by_id.value().find(row[rcol.value()]);
    if (lit == left_by_id.value().end() || rit == right_by_id.value().end()) {
      return Status::Error("pair references unknown record id '" +
                           row[lcol.value()] + "'/'" + row[rcol.value()] +
                           "'");
    }
    const std::string& label = row[ycol.value()];
    if (label != "0" && label != "1") {
      return Status::Error("pair label must be 0 or 1, got '" + label + "'");
    }
    out.push_back(
        {lit->second + " [SEP] " + rit->second, label == "1" ? 1 : 0});
  }
  return out;
}

StatusOr<std::vector<Example>> LoadEdtTableCsv(const std::string& dirty_path,
                                               const std::string& clean_path,
                                               bool context_dependent) {
  auto parsed_dirty = ReadCsvFileShared(dirty_path);
  if (!parsed_dirty.ok()) return parsed_dirty.status();
  const CsvTable& dirty = *parsed_dirty.value();
  if (auto s = CheckRectangular(dirty, dirty_path); !s.ok()) return s;
  CsvTable clean;
  const bool has_clean = !clean_path.empty();
  if (has_clean) {
    auto parsed = ReadCsvFileShared(clean_path);
    if (!parsed.ok()) return parsed.status();
    clean = *parsed.value();
    if (auto s = CheckRectangular(clean, clean_path); !s.ok()) return s;
    if (clean.header != dirty.header ||
        clean.rows.size() != dirty.rows.size()) {
      return Status::Error("clean table shape differs from dirty table");
    }
  }

  std::vector<Example> out;
  for (size_t r = 0; r < dirty.rows.size(); ++r) {
    const auto& row = dirty.rows[r];
    text::Record record = RowToRecord(dirty, row, /*skip_column=*/-1);
    for (size_t c = 0; c < row.size(); ++c) {
      const int64_t label =
          has_clean && clean.rows[r][c] != row[c] ? 1 : 0;
      const std::string input =
          context_dependent ? text::SerializeRowContext(record, c)
                            : text::SerializeCell(dirty.header[c], row[c]);
      out.push_back({input, label});
    }
  }
  return out;
}

TaskDataset MakeTaskDataset(std::vector<Example> examples, int64_t train_size,
                            int64_t test_size, int64_t num_classes,
                            bool is_pair_task, bool is_record_task,
                            uint64_t seed, const std::string& name) {
  Rng rng(seed);
  rng.Shuffle(examples);
  TaskDataset ds;
  ds.name = name;
  ds.num_classes = num_classes;
  ds.is_pair_task = is_pair_task;
  ds.is_record_task = is_record_task;
  int64_t cursor = 0;
  const int64_t n = static_cast<int64_t>(examples.size());
  for (; cursor < std::min(test_size, n); ++cursor)
    ds.test.push_back(examples[cursor]);
  for (; cursor < std::min(test_size + train_size, n); ++cursor)
    ds.train.push_back(examples[cursor]);
  ds.valid = ds.train;
  for (; cursor < n; ++cursor) ds.unlabeled.push_back(examples[cursor].text);
  return ds;
}

}  // namespace data
}  // namespace rotom
