// Leveled, structured, allocation-free logging for the simulator stack.
//
// A log record is a fixed-size POD: level, static component and message
// strings, a wall-clock stamp, and up to kMaxFields key=value fields
// (numbers, or short strings copied into an inline buffer). Records below
// the active level cost one comparison. Accepted records go, when a text
// sink is installed, to it as one "[level] +wall component: message
// key=value ..." line.
//
// The process-global logger (obs::log() / the PLC_LOG_* macros) reads its
// initial level from the PLC_LOG environment variable
// (trace|debug|info|warn|error|off; default info) and writes text to
// stderr, keeping stdout clean for the harnesses' tables and CSV.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string_view>

#include "obs/report.hpp"

namespace plc::obs {

enum class LogLevel : std::uint8_t {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

std::string_view to_string(LogLevel level);

/// Parses "debug", "WARN", ... (case-insensitive); `fallback` on no match.
LogLevel parse_log_level(std::string_view text, LogLevel fallback);

/// One structured field value: a double or a short inline string.
struct LogValue {
  enum class Kind : std::uint8_t { kNumber = 0, kText = 1 };
  static constexpr std::size_t kTextCapacity = 47;

  Kind kind = Kind::kNumber;
  double number = 0.0;
  char text[kTextCapacity + 1] = {};  ///< NUL-terminated, truncating.
};

/// One log record. `component`, `message` and field keys must be static
/// strings (string literals); everything else is stored inline.
struct LogRecord {
  static constexpr int kMaxFields = 6;

  LogLevel level = LogLevel::kInfo;
  const char* component = "";
  const char* message = "";
  /// Wall seconds since the owning logger was constructed (stamped by
  /// Log::write).
  double wall_seconds = 0.0;
  const char* keys[kMaxFields] = {};
  LogValue values[kMaxFields];
  int field_count = 0;

  /// Appends a numeric field (ignored beyond kMaxFields).
  void add_number(const char* key, double value);
  /// Appends a string field, truncated to LogValue::kTextCapacity.
  void add_text(const char* key, std::string_view value);
};

/// A leveled logger. Thread-safe: records are written to the text sink
/// under an internal mutex so worker threads of a parallel sweep can log
/// concurrently; the level check on the fast path is a single relaxed
/// atomic load. The global instance is created on first use.
class Log {
 public:
  explicit Log(LogLevel level = LogLevel::kInfo,
               std::ostream* text_sink = nullptr);

  /// The process-global logger (level from PLC_LOG, text to stderr).
  static Log& instance();

  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }
  bool enabled(LogLevel level) const {
    return level >= level_.load(std::memory_order_relaxed);
  }

  /// Installs (or with nullptr removes) the text sink.
  void set_text_sink(std::ostream* out);

  /// Stamps `record` (wall time) and writes it to the text sink. The
  /// level filter is the caller's job (see the PLC_LOG_* macros).
  void write(LogRecord record);

  /// Text rendering of one record ("[info ] +1.203s comp: msg k=v ...").
  static void format_text(std::ostream& out, const LogRecord& record);

 private:
  std::atomic<LogLevel> level_;
  std::ostream* text_sink_;
  Stopwatch stopwatch_;
  std::mutex mutex_;  ///< Guards the sink.
};

/// Fluent builder used by the PLC_LOG_* macros: fields chain onto the
/// record and the destructor commits it (a dead event is a no-op).
class LogEvent {
 public:
  LogEvent(Log& log, LogLevel level, const char* component,
           const char* message)
      : log_(log), live_(log.enabled(level)) {
    if (live_) {
      record_.level = level;
      record_.component = component;
      record_.message = message;
    }
  }
  ~LogEvent() {
    if (live_) log_.write(record_);
  }
  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;

  LogEvent& num(const char* key, double value) {
    if (live_) record_.add_number(key, value);
    return *this;
  }
  LogEvent& str(const char* key, std::string_view value) {
    if (live_) record_.add_text(key, value);
    return *this;
  }

 private:
  Log& log_;
  bool live_;
  LogRecord record_;
};

/// The global logger (shorthand for Log::instance()).
inline Log& log() { return Log::instance(); }

}  // namespace plc::obs

#define PLC_LOG_AT(level, component, message)                      \
  ::plc::obs::LogEvent(::plc::obs::Log::instance(), level,         \
                       component, message)
#define PLC_LOG_DEBUG(component, message) \
  PLC_LOG_AT(::plc::obs::LogLevel::kDebug, component, message)
#define PLC_LOG_INFO(component, message) \
  PLC_LOG_AT(::plc::obs::LogLevel::kInfo, component, message)
#define PLC_LOG_WARN(component, message) \
  PLC_LOG_AT(::plc::obs::LogLevel::kWarn, component, message)
#define PLC_LOG_ERROR(component, message) \
  PLC_LOG_AT(::plc::obs::LogLevel::kError, component, message)
