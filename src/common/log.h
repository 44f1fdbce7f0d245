// Minimal leveled logger.
//
// The simulator is a library, so logging goes through one injectable sink.
// Default sink writes to stderr; tests install a capturing sink. The level
// is a process-wide atomic and the sink is mutex-guarded: a single
// simulation is single-threaded, but the experiment runner
// (src/sim/experiment.cpp) can drive many simulations at once through this
// one logger, and the lock keeps their lines from interleaving mid-message.
#pragma once

#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace cosched {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Parse "trace"/"debug"/"info"/"warn"/"error"/"off" (case-insensitive).
/// Returns nullopt for anything else.
std::optional<LogLevel> parse_log_level(std::string_view name);

/// Global log configuration. Safe to use from parallel experiment workers
/// (see header comment).
class Log {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  static LogLevel level();
  static void set_level(LogLevel level);
  static void set_sink(Sink sink);
  static void reset_sink();

  /// Re-read COSCHED_LOG_LEVEL from the environment (applied once at
  /// startup automatically; exposed so tests can exercise the parsing).
  /// Unset or unparsable values leave the level unchanged.
  static void init_from_env();

  static void write(LogLevel level, const std::string& message);
  static const char* level_name(LogLevel level);
};

namespace detail {

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Log::write(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace detail
}  // namespace cosched

#define COSCHED_LOG(lvl)                             \
  if (::cosched::Log::level() <= ::cosched::LogLevel::lvl) \
  ::cosched::detail::LogLine(::cosched::LogLevel::lvl)

#define COSCHED_TRACE() COSCHED_LOG(kTrace)
#define COSCHED_DEBUG() COSCHED_LOG(kDebug)
#define COSCHED_INFO() COSCHED_LOG(kInfo)
#define COSCHED_WARN() COSCHED_LOG(kWarn)
#define COSCHED_ERROR() COSCHED_LOG(kError)
