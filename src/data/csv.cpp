#include "data/csv.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "data/mmap_file.h"
#include "data/preprocess.h"
#include "obs/context.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace wefr::data {

namespace {
constexpr int kMetaCols = 4;  // drive_id, day, failed, fail_day
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// "nan" in any case, with at most one leading '-': write_fleet_csv
/// streams a sign-bit NaN (the x86 result of 0.0/0.0) as "-nan".
bool is_nan_token(std::string_view s) {
  if (!s.empty() && s[0] == '-') s.remove_prefix(1);
  if (s.size() != 3) return false;
  auto lower = [](char c) { return static_cast<char>(c | 0x20); };
  return lower(s[0]) == 'n' && lower(s[1]) == 'a' && lower(s[2]) == 'n';
}
}  // namespace

void write_fleet_csv(const FleetData& fleet, std::ostream& os) {
  os << "drive_id,day,failed,fail_day";
  for (const auto& name : fleet.feature_names) os << ',' << name;
  os << '\n';
  os.precision(17);
  for (const auto& drive : fleet.drives) {
    for (std::size_t d = 0; d < drive.num_days(); ++d) {
      os << drive.drive_id << ',' << (drive.first_day + static_cast<int>(d)) << ','
         << (drive.failed() ? 1 : 0) << ',' << drive.fail_day;
      for (double v : drive.values.row(d)) os << ',' << v;
      os << '\n';
    }
  }
}

void write_fleet_csv(const FleetData& fleet, const std::string& path) {
  std::ofstream ofs(path);
  if (!ofs) throw std::runtime_error("write_fleet_csv: cannot open " + path);
  write_fleet_csv(fleet, ofs);
  if (!ofs) throw std::runtime_error("write_fleet_csv: write failed for " + path);
}

namespace {

/// One tokenized data row: zero-copy field views plus pre-parsed
/// numerics, produced by tokenize_row on the serial path and by the
/// parallel chunk workers on the mmap path. Everything order-dependent
/// (drive grouping, contiguity, quarantine policy) happens later, in
/// RowAssembler, which consumes RawRows strictly in file order — that
/// is what makes the parallel parse byte-identical to the serial one.
struct RawRow {
  std::string_view id;            ///< first field of the (line-trimmed) row
  std::size_t line_no = 0;        ///< 1-based file line (header = line 1)
  bool fields_ok = false;         ///< exactly kMetaCols + nf fields
  bool meta_ok = false;           ///< day/failed/fail_day parsed, day/fail_day fit int
  int day = 0;                    ///< valid iff meta_ok
  int fail_day = 0;               ///< valid iff meta_ok
  std::size_t values_off = 0;     ///< nf doubles in the side buffer, iff fields_ok
  std::uint32_t missing_cells = 0;  ///< empty / "nan" feature fields
  std::uint32_t bad_cells = 0;      ///< otherwise-unparseable feature fields
  std::uint32_t padded_cells = 0;   ///< NaN-padded tail (pad_missing_columns)
};

/// Parses one feature cell with exactly util::trim + util::parse_double
/// semantics (a finite double spanning the whole trimmed cell), but
/// trims once (a no-op unless an end byte is blank) and runs
/// std::from_chars once, straight on the input bytes. A rejected cell becomes NaN; the return
/// value says whether it counts as missing (empty or a NaN token) or bad.
enum class CellKind { kValue, kMissing, kBad };

CellKind parse_cell(std::string_view cell, double& out) {
  cell = util::trim(cell);
  if (!cell.empty()) {
    const char* end = cell.data() + cell.size();
    const auto [ptr, ec] = std::from_chars(cell.data(), end, out);
    if (ec == std::errc{} && ptr == end && std::isfinite(out)) return CellKind::kValue;
  }
  out = kNaN;
  return cell.empty() || is_nan_token(cell) ? CellKind::kMissing : CellKind::kBad;
}

/// True when `v` (finite) truncates to a value of type int, so the
/// static_cast below is defined.
bool fits_int(double v) { return v > -2147483649.0 && v < 2147483648.0; }

/// Tokenizes one non-empty, line-trimmed data row. Splits on ',' with
/// util::split semantics (empty fields kept) but without allocating,
/// finding each field's end with memchr. The row's nf feature values
/// (NaN holes included) are written in place to `values[0, nf)`, which
/// the caller sizes; they are meaningful only when the field count is
/// exactly right (`row.fields_ok`). With `pad_missing`
/// (ReadOptions::pad_missing_columns) a row whose meta fields are
/// complete but whose feature tail is short is accepted instead: the
/// missing cells become NaN and are counted in `row.padded_cells`
/// (schema tolerance, distinct from the missing/bad-cell corruption
/// tallies). A day or fail_day outside int range makes the meta
/// fields bad, like an unparseable one.
void tokenize_row(std::string_view row_text, std::size_t nf, bool pad_missing,
                  double* values, RawRow& row) {
  const char* p = row_text.data();
  const char* const end = p + row_text.size();
  bool more = true;  // another field starts at p
  auto next_field = [&] {
    const auto* comma = static_cast<const char*>(
        p == end ? nullptr : std::memchr(p, ',', static_cast<std::size_t>(end - p)));
    const char* field_end = comma != nullptr ? comma : end;
    const std::string_view field(p, static_cast<std::size_t>(field_end - p));
    more = comma != nullptr;
    p = more ? comma + 1 : end;
    return field;
  };

  std::string_view meta[kMetaCols];
  std::size_t num_meta = 0;
  while (more && num_meta < kMetaCols) meta[num_meta++] = next_field();
  row.id = meta[0];
  if (num_meta < kMetaCols) return;  // too few fields even to pad

  std::uint32_t missing = 0, bad = 0;
  std::size_t f = 0;
  for (; more && f < nf; ++f) {
    switch (parse_cell(next_field(), values[f])) {
      case CellKind::kValue: break;
      case CellKind::kMissing: ++missing; break;
      case CellKind::kBad: ++bad; break;
    }
  }
  if (more) return;  // a field past the last feature column
  if (f < nf) {
    if (!pad_missing) return;
    std::fill(values + f, values + nf, kNaN);
    row.padded_cells = static_cast<std::uint32_t>(nf - f);
  }
  row.fields_ok = true;
  row.missing_cells = missing;
  row.bad_cells = bad;
  double day_d = 0.0, failed_d = 0.0, fail_day_d = 0.0;
  // fail_day may be -1 for healthy drives.
  row.meta_ok = util::parse_double(meta[1], day_d) &&
                util::parse_double(meta[2], failed_d) &&
                util::parse_double(meta[3], fail_day_d) && fits_int(day_d) &&
                fits_int(fail_day_d);
  if (row.meta_ok) {
    row.day = static_cast<int>(day_d);
    row.fail_day = static_cast<int>(fail_day_d);
  }
}

/// Drive-id set probed by string_view, so a row's id becomes a
/// std::string only when a drive starts or a row is quarantined.
struct IdHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
using IdSet = std::unordered_set<std::string, IdHash, std::equal_to<>>;

/// The order-dependent half of the parser: drive grouping, day
/// contiguity, ParsePolicy strict/recover/skip-drive semantics, and
/// every IngestReport tally, consuming tokenized rows in file order.
/// Shared verbatim between the serial istream parser (the equivalence
/// oracle) and the parallel mmap parser, so the two cannot drift.
///
/// In strict mode anomalies throw (identical messages to the
/// historical parser); in the tolerant modes they are tallied into
/// `rep` and assembly keeps going, so consumption is total on
/// arbitrary row corruption.
class RowAssembler {
 public:
  RowAssembler(const ReadOptions& opt, const std::string& model_name, IngestReport& rep)
      : opt_(opt),
        strict_(opt.policy == ParsePolicy::kStrict),
        skip_drive_(opt.policy == ParsePolicy::kSkipDrive),
        rep_(rep) {
    fleet_.model_name = model_name;
  }

  /// Records an unusable-input condition (no header at all, header too
  /// short/wrong): throws in strict mode, sets rep.fatal otherwise.
  void input_fatal(RowError e, const char* msg) {
    if (strict_) throw std::runtime_error(msg);
    ++rep_.error_counts[static_cast<std::size_t>(e)];
    rep_.fatal = true;
    rep_.fatal_detail = msg;
  }

  /// Parses the header line (content of file line 1, untrimmed).
  /// False = unusable input already recorded via input_fatal.
  bool header(std::string_view line) {
    const auto fields = util::split(util::trim(line), ',');
    if (fields.size() < kMetaCols + 1) {
      input_fatal(RowError::kBadHeader, "read_fleet_csv: header too short");
      return false;
    }
    if (fields[0] != "drive_id" || fields[1] != "day" || fields[2] != "failed" ||
        fields[3] != "fail_day") {
      input_fatal(RowError::kBadHeader, "read_fleet_csv: unexpected header");
      return false;
    }
    fleet_.feature_names.assign(fields.begin() + kMetaCols, fields.end());
    nf_ = fleet_.feature_names.size();
    nan_row_.assign(nf_, kNaN);
    return true;
  }

  std::size_t nf() const { return nf_; }

  /// Consumes one tokenized row; `vals` points at its nf feature
  /// doubles (only dereferenced when row.fields_ok). `ahead` holds the
  /// rows that follow it in its chunk: a drive starting here reserves
  /// its matrix for the run of them that carry its id (a capacity hint
  /// only; a drive split across chunks grows once).
  void consume(const RawRow& row, const double* vals, std::span<const RawRow> ahead) {
    ++rep_.rows_total;
    const std::string_view row_id = row.id;

    if (!poisoned_ids_.empty() && !row_id.empty() && poisoned_ids_.count(row_id) > 0) {
      ++rep_.rows_quarantined;  // rest of an already-poisoned drive
      return;
    }
    if (!row.fields_ok) {
      if (strict_)
        throw std::runtime_error("read_fleet_csv: wrong field count at line " +
                                 std::to_string(row.line_no));
      quarantine_row(RowError::kWrongFieldCount, row_id);
      return;
    }
    if (!row.meta_ok) {
      if (strict_)
        throw std::runtime_error("read_fleet_csv: bad day/failed/fail_day at line " +
                                 std::to_string(row.line_no));
      quarantine_row(RowError::kBadMetaField, row_id);
      return;
    }
    const int day = row.day;

    if (current_ == nullptr || current_->drive_id != row_id) {
      if (seen_ids_.count(row_id) > 0) {
        // A drive restarting after other drives: its rows are no longer
        // contiguous, so its series cannot be trusted.
        if (strict_)
          throw std::runtime_error("read_fleet_csv: drive " + std::string(row_id) +
                                   " reappears at line " + std::to_string(row.line_no));
        quarantine_row(RowError::kReappearingDrive, row_id);
        return;
      }
      seen_ids_.emplace(row_id);
      fleet_.drives.emplace_back();
      ok_rows_per_drive_.push_back(0);
      current_ = &fleet_.drives.back();
      current_->drive_id = row_id;
      current_->first_day = day;
      current_->fail_day = row.fail_day;
      current_->values = Matrix(0, nf_);
      std::size_t run = 1;
      while (run <= ahead.size() && ahead[run - 1].id == row_id) ++run;
      current_->values.reserve_rows(run);
    } else if (day != current_->last_day() + 1) {
      if (strict_)
        throw std::runtime_error("read_fleet_csv: non-contiguous days for drive " +
                                 std::string(row_id) + " at line " +
                                 std::to_string(row.line_no));
      const int gap = day - current_->last_day() - 1;
      if (gap > 0 && gap <= opt_.max_gap_days) {
        // A short observation gap: bridge it with all-NaN days so the
        // series stays contiguous; forward_fill repairs them later.
        for (int g = 0; g < gap; ++g) current_->values.push_row(nan_row_);
        rep_.gap_days_bridged += static_cast<std::size_t>(gap);
      } else {
        // Duplicate, out-of-order, or an implausibly large jump.
        quarantine_row(RowError::kNonContiguousDay, row_id);
        if (poisoned_ids_.count(row_id) > 0) current_ = nullptr;
        return;
      }
    }

    if (row.bad_cells + row.missing_cells > 0) {
      if (strict_)
        throw std::runtime_error("read_fleet_csv: bad value at line " +
                                 std::to_string(row.line_no));
      // Cell-level recovery: the row survives with NaN holes.
      rep_.cells_recovered += row.bad_cells + row.missing_cells;
      rep_.error_counts[static_cast<std::size_t>(RowError::kBadValue)] += row.bad_cells;
      rep_.error_counts[static_cast<std::size_t>(RowError::kMissingValue)] +=
          row.missing_cells;
    }
    if (row.padded_cells > 0) {
      // Mixed-schema tail pad: a schema statement, not corruption — no
      // error class, no strict throw, just the dedicated tallies.
      ++rep_.rows_padded;
      rep_.cells_padded += row.padded_cells;
    }
    current_->values.push_row({vals, nf_});
    ++rep_.rows_ok;
    ++ok_rows_per_drive_[fleet_.drives.size() - 1];
    max_day_ = std::max(max_day_, day);
  }

  /// Stream went bad mid-read (istream path only).
  void io_failure() {
    if (strict_) throw std::runtime_error("read_fleet_csv: stream read failed");
    ++rep_.error_counts[static_cast<std::size_t>(RowError::kIoFailure)];
  }

  /// Returns the (empty) fleet after an unusable-input condition.
  FleetData abandon() { return std::move(fleet_); }

  /// Final sweep: drop poisoned drives (kSkipDrive), reclaim their
  /// already-accepted rows into the quarantine tallies, fix num_days.
  FleetData finish() {
    if (!poisoned_ids_.empty()) {
      std::vector<DriveSeries> kept;
      kept.reserve(fleet_.drives.size());
      for (std::size_t i = 0; i < fleet_.drives.size(); ++i) {
        if (poisoned_ids_.count(fleet_.drives[i].drive_id) > 0) {
          rep_.rows_ok -= ok_rows_per_drive_[i];
          rep_.rows_quarantined += ok_rows_per_drive_[i];
          ++rep_.drives_quarantined;
        } else {
          kept.push_back(std::move(fleet_.drives[i]));
        }
      }
      fleet_.drives = std::move(kept);
      max_day_ = -1;
      for (const auto& d : fleet_.drives)
        if (d.num_days() > 0) max_day_ = std::max(max_day_, d.last_day());
    }
    fleet_.num_days = max_day_ + 1;
    return std::move(fleet_);
  }

 private:
  void flag_drive(std::string_view id) {
    if (id.empty() || flagged_ids_.count(id) > 0) return;
    flagged_ids_.emplace(id);
    if (rep_.quarantined_drive_ids.size() < opt_.max_quarantined_ids)
      rep_.quarantined_drive_ids.emplace_back(id);
  }

  /// Quarantines one row; in kSkipDrive mode the whole drive goes with
  /// it (rows already parsed are reclaimed during the final sweep).
  void quarantine_row(RowError e, std::string_view id) {
    ++rep_.error_counts[static_cast<std::size_t>(e)];
    ++rep_.rows_quarantined;
    flag_drive(id);
    if (skip_drive_ && !id.empty()) poisoned_ids_.emplace(id);
  }

  const ReadOptions& opt_;
  const bool strict_;
  const bool skip_drive_;
  IngestReport& rep_;

  FleetData fleet_;
  std::size_t nf_ = 0;
  std::vector<double> nan_row_;
  IdSet seen_ids_;                              // every drive id started
  IdSet poisoned_ids_;                          // kSkipDrive casualties
  IdSet flagged_ids_;                           // ids in quarantined_drive_ids
  std::vector<std::size_t> ok_rows_per_drive_;  // parallel to fleet_.drives
  DriveSeries* current_ = nullptr;
  int max_day_ = -1;
};

/// Workers for the parallel parse and fill (ReadOptions::num_threads).
std::size_t worker_count(const ReadOptions& opt) {
  return opt.num_threads == 0 ? util::default_thread_count() : opt.num_threads;
}

/// Serial reference parser behind the istream overloads: getline +
/// tokenize + assemble, one row at a time. This is the equivalence
/// oracle the parallel mmap parser is tested against.
FleetData parse_fleet_csv(std::istream& is, const std::string& model_name,
                          const ReadOptions& opt, IngestReport& rep) {
  RowAssembler assembler(opt, model_name, rep);
  std::string line;
  if (!std::getline(is, line)) {
    assembler.input_fatal(RowError::kEmptyInput, "read_fleet_csv: empty input");
    return assembler.abandon();
  }
  if (!assembler.header(line)) return assembler.abandon();

  std::vector<double> scratch(assembler.nf());
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    const auto trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    RawRow row;
    row.line_no = line_no;
    tokenize_row(trimmed, assembler.nf(), opt.pad_missing_columns, scratch.data(), row);
    assembler.consume(row, scratch.data(), {});
  }
  if (is.bad()) assembler.io_failure();
  return assembler.finish();
}

/// One newline-aligned slice of the data region, tokenized by one
/// worker. `lines` counts every line in the slice (blank ones
/// included) so global line numbers rebase by prefix sum. `values` is
/// sized up front and left uninitialized; accepted rows fill it in
/// order.
struct ParsedChunk {
  std::size_t lines = 0;
  std::vector<RawRow> rows;
  std::vector<double, detail::DefaultInitAllocator<double>> values;
};

void tokenize_chunk(std::string_view data, std::size_t nf, bool pad_missing,
                    ParsedChunk& out) {
  // A row is a line, so the newline count bounds both buffers: size
  // them once and write each row's values in place, so no worker
  // reallocates mid-chunk.
  const std::size_t max_rows =
      static_cast<std::size_t>(std::count(data.begin(), data.end(), '\n')) + 1;
  out.rows.reserve(max_rows);
  out.values.resize(max_rows * nf);
  std::size_t values_used = 0;
  std::size_t pos = 0;
  std::size_t line_index = 0;
  while (pos < data.size()) {
    const std::size_t eol = data.find('\n', pos);
    const std::size_t end = eol == std::string_view::npos ? data.size() : eol;
    const std::string_view line = data.substr(pos, end - pos);
    pos = eol == std::string_view::npos ? data.size() : eol + 1;
    ++line_index;
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    RawRow& row = out.rows.emplace_back();
    row.line_no = line_index;  // chunk-relative; rebased during merge
    tokenize_row(trimmed, nf, pad_missing, out.values.data() + values_used, row);
    if (row.fields_ok) {
      row.values_off = values_used;
      values_used += nf;
    }
  }
  out.lines = line_index;
}

/// Parallel buffer parser: newline-aligned chunks tokenized on a
/// ThreadPool (the expensive part — field splitting and from_chars),
/// then merged in file order through the same RowAssembler the serial
/// parser uses. Output is byte-identical to parse_fleet_csv on the
/// same bytes at any thread count and any chunk size.
FleetData parse_fleet_buffer(std::string_view text, const std::string& model_name,
                             const ReadOptions& opt, IngestReport& rep,
                             const obs::Context* obs) {
  RowAssembler assembler(opt, model_name, rep);
  if (text.empty()) {
    assembler.input_fatal(RowError::kEmptyInput, "read_fleet_csv: empty input");
    return assembler.abandon();
  }
  const std::size_t header_eol = text.find('\n');
  const std::string_view header_line =
      text.substr(0, header_eol == std::string_view::npos ? text.size() : header_eol);
  if (!assembler.header(header_line)) return assembler.abandon();
  const std::string_view data =
      header_eol == std::string_view::npos ? std::string_view{}
                                           : text.substr(header_eol + 1);

  const std::size_t threads = worker_count(opt);
  const std::size_t chunk_bytes = std::max<std::size_t>(1, opt.parallel_chunk_bytes);
  // Enough chunks to fill the pool with headroom for stragglers, but
  // never smaller than the target chunk size.
  std::size_t num_chunks =
      std::min(data.size() / chunk_bytes + 1, std::max<std::size_t>(1, threads * 4));

  std::vector<std::size_t> bounds{0};
  for (std::size_t c = 1; c < num_chunks; ++c) {
    const std::size_t nominal = std::max(data.size() * c / num_chunks, bounds.back());
    const std::size_t nl = data.find('\n', nominal);
    const std::size_t b = nl == std::string_view::npos ? data.size() : nl + 1;
    if (b > bounds.back() && b < data.size()) bounds.push_back(b);
  }
  bounds.push_back(data.size());
  const std::size_t n_chunks = bounds.size() - 1;

  std::vector<ParsedChunk> chunks(n_chunks);
  const std::size_t nf = assembler.nf();
  auto run_chunk = [&](std::size_t c) {
    tokenize_chunk(data.substr(bounds[c], bounds[c + 1] - bounds[c]), nf,
                   opt.pad_missing_columns, chunks[c]);
  };
  {
    obs::Span tokenize_span(obs, "ingest:tokenize");
    if (threads > 1 && n_chunks > 1) {
      util::ThreadPool pool(std::min(threads, n_chunks));
      pool.parallel_for(n_chunks, run_chunk);
    } else {
      for (std::size_t c = 0; c < n_chunks; ++c) run_chunk(c);
    }
  }
  obs::add_counter(obs, "wefr_ingest_parse_chunks_total", n_chunks);

  obs::Span merge_span(obs, "ingest:merge");
  std::size_t line_base = 1;  // the header is line 1
  for (auto& chunk : chunks) {
    const std::span<const RawRow> rows = chunk.rows;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      RawRow& row = chunk.rows[i];
      row.line_no += line_base;
      assembler.consume(row, chunk.values.data() + row.values_off, rows.subspan(i + 1));
    }
    line_base += chunk.lines;
    chunk = ParsedChunk{};  // its rows now live in the fleet
  }
  return assembler.finish();
}

}  // namespace

FleetData read_fleet_csv(std::istream& is, const std::string& model_name,
                         const ReadOptions& opt, IngestReport* report,
                         const obs::Context* obs) {
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  rep = IngestReport{};
  obs::Span span(obs, "ingest:read_csv");
  FleetData fleet = parse_fleet_csv(is, model_name, opt, rep);
  span.finish();
  if (obs != nullptr && obs->metrics != nullptr) rep.export_counters(*obs->metrics);
  return fleet;
}

FleetData read_fleet_csv(std::istream& is, const std::string& model_name) {
  return read_fleet_csv(is, model_name, ReadOptions{});
}

FleetData read_fleet_csv_buffer(std::string_view text, const std::string& model_name,
                                const ReadOptions& opt, IngestReport* report,
                                const obs::Context* obs) {
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  rep = IngestReport{};
  obs::Span span(obs, "ingest:read_csv");
  FleetData fleet = parse_fleet_buffer(text, model_name, opt, rep, obs);
  span.finish();
  if (obs != nullptr && obs->metrics != nullptr) rep.export_counters(*obs->metrics);
  return fleet;
}

FleetData read_fleet_csv(const std::string& path, const std::string& model_name,
                         const ReadOptions& opt, IngestReport* report,
                         const obs::Context* obs) {
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  rep = IngestReport{};

  obs::Span span(obs, "ingest:read_csv");
  const std::size_t attempts = std::max<std::size_t>(1, opt.max_io_attempts);
  std::string open_error;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) ++rep.io_retries;
    MappedFile file;
    if (!file.open(path)) {
      open_error = "read_fleet_csv: cannot open " + path;
      continue;
    }
    IngestReport pass;
    pass.io_retries = rep.io_retries;
    FleetData fleet = parse_fleet_buffer(file.view(), model_name, opt, pass, obs);
    rep = pass;
    span.finish();
    if (obs != nullptr && obs->metrics != nullptr) rep.export_counters(*obs->metrics);
    return fleet;
  }

  if (opt.policy == ParsePolicy::kStrict)
    throw std::runtime_error(open_error + " after " + std::to_string(attempts) +
                             " attempts");
  ++rep.error_counts[static_cast<std::size_t>(RowError::kIoFailure)];
  rep.fatal = true;
  rep.fatal_detail = open_error;
  span.finish();
  if (obs != nullptr && obs->metrics != nullptr) rep.export_counters(*obs->metrics);
  { FleetData empty; empty.model_name = model_name; return empty; }
}

FleetData read_fleet_csv(const std::string& path, const std::string& model_name) {
  std::ifstream ifs(path);
  if (!ifs) throw std::runtime_error("read_fleet_csv: cannot open " + path);
  return read_fleet_csv(ifs, model_name);
}

FleetData load_fleet_csv(const std::string& path, const std::string& model_name,
                         const ReadOptions& opt, IngestReport* report,
                         const obs::Context* obs) {
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  obs::Span span(obs, "ingest");
  FleetData fleet = read_fleet_csv(path, model_name, opt, &rep, obs);
  if (!rep.fatal) {
    obs::Span fill_span(obs, "ingest:forward_fill");
    // Drives fill independently on the pool; their tallies are integer
    // sums, merged in drive order, so they equal a serial fill's.
    std::vector<FillStats> stats(fleet.drives.size());
    auto fill_drive = [&](std::size_t i) { forward_fill(fleet.drives[i], 0.0, &stats[i]); };
    const std::size_t threads = worker_count(opt);
    if (threads > 1 && fleet.drives.size() > 1) {
      util::ThreadPool pool(std::min(threads, fleet.drives.size()));
      pool.parallel_for_chunked(fleet.drives.size(), 16, fill_drive);
    } else {
      for (std::size_t i = 0; i < fleet.drives.size(); ++i) fill_drive(i);
    }
    for (const FillStats& s : stats) rep.fill.merge(s);
    fill_span.finish();
    obs::add_counter(obs, "wefr_ingest_cells_filled_total", rep.fill.cells_filled);
  }
  return fleet;
}

}  // namespace wefr::data
