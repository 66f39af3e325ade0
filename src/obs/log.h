#pragma once

#include <cstdio>
#include <string_view>

#include "util/stopwatch.h"

namespace wefr::obs {

/// Verbosity of the CLI tools' structured stderr log.
enum class LogLevel : int {
  kQuiet = 0,  ///< nothing
  kInfo = 1,   ///< stage progress (the default)
  kDebug = 2,  ///< + per-step detail (cache outcomes, ...)
};

/// Parses "quiet" / "info" / "debug" into `out`; false on anything else.
bool parse_log_level(std::string_view text, LogLevel& out);

/// Structured stderr logger for the CLI tools. Every line carries a
/// monotonic timestamp (seconds since logger construction — the same
/// steady clock the tracer uses, never the steppable wall clock) and a
/// stage tag:
///
///   [+   0.123s] [ingest] 412 drives, 150 days, 23 features
///
/// Results stay on stdout; this channel is operational progress only,
/// so piping a tool's stdout keeps working at any verbosity.
class Logger {
 public:
  explicit Logger(LogLevel level = LogLevel::kInfo, std::FILE* sink = nullptr)
      : level_(level), sink_(sink != nullptr ? sink : stderr) {}

  LogLevel level() const { return level_; }
  void set_level(LogLevel level) { level_ = level; }
  bool enabled(LogLevel level) const {
    return static_cast<int>(level) <= static_cast<int>(level_);
  }

  void info(std::string_view stage, std::string_view msg) {
    write(LogLevel::kInfo, stage, msg);
  }
  void debug(std::string_view stage, std::string_view msg) {
    write(LogLevel::kDebug, stage, msg);
  }

  /// printf-style conveniences (message truncated past ~1 KiB).
  void infof(const char* stage, const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
      __attribute__((format(printf, 3, 4)))
#endif
      ;
  void debugf(const char* stage, const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
      __attribute__((format(printf, 3, 4)))
#endif
      ;

 private:
  void write(LogLevel level, std::string_view stage, std::string_view msg);

  util::Stopwatch epoch_;
  LogLevel level_;
  std::FILE* sink_;
};

}  // namespace wefr::obs
