#include "obs/log.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <ostream>

#include "util/strings.hpp"

namespace plc::obs {

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "unknown";
}

LogLevel parse_log_level(std::string_view text, LogLevel fallback) {
  std::string lower;
  lower.reserve(text.size());
  for (const char c : text) {
    lower.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  for (const LogLevel level :
       {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
        LogLevel::kError, LogLevel::kOff}) {
    if (lower == to_string(level)) return level;
  }
  return fallback;
}

void LogRecord::add_number(const char* key, double value) {
  if (field_count >= kMaxFields) return;
  keys[field_count] = key;
  values[field_count].kind = LogValue::Kind::kNumber;
  values[field_count].number = value;
  ++field_count;
}

void LogRecord::add_text(const char* key, std::string_view value) {
  if (field_count >= kMaxFields) return;
  keys[field_count] = key;
  LogValue& slot = values[field_count];
  slot.kind = LogValue::Kind::kText;
  const std::size_t length =
      value.size() < LogValue::kTextCapacity ? value.size()
                                             : LogValue::kTextCapacity;
  std::memcpy(slot.text, value.data(), length);
  slot.text[length] = '\0';
  ++field_count;
}

Log::Log(LogLevel level, std::ostream* text_sink)
    : level_(level), text_sink_(text_sink) {}

Log& Log::instance() {
  static Log log = [] {
    LogLevel level = LogLevel::kInfo;
    if (const char* env = std::getenv("PLC_LOG")) {
      level = parse_log_level(env, level);
    }
    return Log(level, &std::cerr);
  }();
  return log;
}

void Log::set_text_sink(std::ostream* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  text_sink_ = out;
}

void Log::write(LogRecord record) {
  record.wall_seconds = stopwatch_.elapsed_seconds();
  std::lock_guard<std::mutex> lock(mutex_);
  if (text_sink_ != nullptr) {
    format_text(*text_sink_, record);
  }
}

void Log::format_text(std::ostream& out, const LogRecord& record) {
  std::string line = "[";
  line += to_string(record.level);
  line.resize(6, ' ');  // "[info " — fixed-width level column.
  line += "] +";
  line += util::format_fixed(record.wall_seconds, 3);
  line += "s ";
  line += record.component;
  line += ": ";
  line += record.message;
  for (int i = 0; i < record.field_count; ++i) {
    line += " ";
    line += record.keys[i];
    line += "=";
    if (record.values[i].kind == LogValue::Kind::kNumber) {
      line += util::format_double(record.values[i].number);
    } else {
      line += record.values[i].text;
    }
  }
  line += "\n";
  out << line << std::flush;
}

}  // namespace plc::obs
