#include "core/log.hpp"

#include <cctype>
#include <cstdarg>
#include <cstdlib>
#include <cstring>

namespace nicwarp {

namespace {
LogLevel g_level = parse_log_level(std::getenv("NICWARP_LOG_LEVEL"), LogLevel::kWarn);
const char* level_tag(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::kError: return "E";
    case LogLevel::kWarn: return "W";
    case LogLevel::kInfo: return "I";
    case LogLevel::kDebug: return "D";
    case LogLevel::kTrace: return "T";
  }
  return "?";
}
}  // namespace

LogLevel parse_log_level(const char* text, LogLevel fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  std::string lower;
  for (const char* p = text; *p; ++p) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(*p)));
  }
  if (lower == "error") return LogLevel::kError;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "trace") return LogLevel::kTrace;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end != text && *end == '\0' && v >= 0 && v <= 4) {
    return static_cast<LogLevel>(v);
  }
  return fallback;
}

LogLevel log_level() { return g_level; }
void set_log_level(LogLevel lvl) { g_level = lvl; }

void log_line(LogLevel lvl, const char* fmt, ...) {
  std::fprintf(stderr, "[%s] ", level_tag(lvl));
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

}  // namespace nicwarp
