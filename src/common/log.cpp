#include "common/log.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace cosched {
namespace {

LogLevel initial_level() {
  LogLevel level = LogLevel::kWarn;
  if (const char* env = std::getenv("COSCHED_LOG_LEVEL")) {
    if (auto parsed = parse_log_level(env)) level = *parsed;
  }
  return level;
}

// The level is an atomic and the sink is mutex-guarded: the experiment
// runner's worker threads (src/sim/experiment.cpp) all funnel through this
// one logger, and the lock also keeps concurrently emitted lines from
// interleaving.
std::atomic<LogLevel> g_level = initial_level();
std::mutex g_sink_mu;
Log::Sink g_sink;  // empty = default stderr sink; guarded by g_sink_mu

void default_sink(LogLevel level, const std::string& message) {
  std::cerr << "[" << Log::level_name(level) << "] " << message << "\n";
}

}  // namespace

std::optional<LogLevel> parse_log_level(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "trace") return LogLevel::kTrace;
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  return std::nullopt;
}

LogLevel Log::level() { return g_level.load(std::memory_order_relaxed); }
void Log::set_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

void Log::init_from_env() {
  if (const char* env = std::getenv("COSCHED_LOG_LEVEL")) {
    if (auto parsed = parse_log_level(env)) Log::set_level(*parsed);
  }
}
void Log::set_sink(Sink sink) {
  std::lock_guard<std::mutex> lock(g_sink_mu);
  g_sink = std::move(sink);
}
void Log::reset_sink() {
  std::lock_guard<std::mutex> lock(g_sink_mu);
  g_sink = nullptr;
}

void Log::write(LogLevel level, const std::string& message) {
  if (level < Log::level()) return;
  std::lock_guard<std::mutex> lock(g_sink_mu);
  if (g_sink) {
    g_sink(level, message);
  } else {
    default_sink(level, message);
  }
}

const char* Log::level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace cosched
