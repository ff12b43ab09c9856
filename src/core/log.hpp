// Minimal leveled logging.
//
// Debug logging of a discrete-event simulation is extremely hot (every packet
// hop is a candidate log line), so the level check is a single branch on an
// inline global and formatting cost is only paid when enabled.
#pragma once

#include <cstdio>
#include <string>

namespace nicwarp {

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3, kTrace = 4 };

// The initial level comes from the NICWARP_LOG_LEVEL environment variable
// (a name — error/warn/info/debug/trace — or the matching integer 0..4);
// unset or unparsable falls back to kWarn. set_log_level overrides at
// runtime.
LogLevel log_level();
void set_log_level(LogLevel lvl);

// Exposed for tests: parses a NICWARP_LOG_LEVEL value (case-insensitive
// name or integer); nullptr/garbage returns `fallback`.
LogLevel parse_log_level(const char* text, LogLevel fallback);

// printf-style; callers go through the NW_LOG_* macros below.
void log_line(LogLevel lvl, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

}  // namespace nicwarp

#define NW_LOG_AT(lvl, ...)                                      \
  do {                                                           \
    if (static_cast<int>(lvl) <= static_cast<int>(::nicwarp::log_level())) \
      ::nicwarp::log_line(lvl, __VA_ARGS__);                     \
  } while (0)

#define NW_ERROR(...) NW_LOG_AT(::nicwarp::LogLevel::kError, __VA_ARGS__)
#define NW_WARN(...) NW_LOG_AT(::nicwarp::LogLevel::kWarn, __VA_ARGS__)
#define NW_INFO(...) NW_LOG_AT(::nicwarp::LogLevel::kInfo, __VA_ARGS__)
#define NW_DEBUG(...) NW_LOG_AT(::nicwarp::LogLevel::kDebug, __VA_ARGS__)
#define NW_TRACE(...) NW_LOG_AT(::nicwarp::LogLevel::kTrace, __VA_ARGS__)
