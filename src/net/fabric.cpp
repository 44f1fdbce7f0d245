#include "net/fabric.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace cosched {

namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

/// Strict positive-integer parse of a whole string: digits only (no
/// whitespace, no sign, no trailing characters), value in [1, max_value].
bool parse_planes(const std::string& s, std::int32_t max_value,
                  std::int32_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno == ERANGE || end == s.c_str() || *end != '\0') return false;
  if (v < 1 || v > max_value) return false;
  *out = static_cast<std::int32_t>(v);
  return true;
}

/// Strict positive duration: a number (digits or '.', no sign, no
/// whitespace) with an optional "ms" or "s" suffix; bare numbers are
/// seconds. Rejects zero, negatives, and any trailing junk.
bool parse_period(const std::string& s, Duration* out) {
  if (s.empty() || ((s[0] < '0' || s[0] > '9') && s[0] != '.')) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno == ERANGE || end == s.c_str()) return false;
  double scale = 1.0;
  if (end[0] == 'm' && end[1] == 's' && end[2] == '\0') {
    scale = 1e-3;
  } else if (end[0] == 's' && end[1] == '\0') {
    scale = 1.0;
  } else if (end[0] != '\0') {
    return false;
  }
  if (!(v > 0.0)) return false;  // also rejects NaN
  *out = Duration::seconds(v * scale);
  return true;
}

}  // namespace

std::optional<FabricSpec> FabricSpec::parse(const std::string& spec,
                                            std::string* error) {
  if (spec.empty()) {
    fail(error, "empty fabric spec (expected ocs[:K], rotor[:PERIOD], or "
                "mesh)");
    return std::nullopt;
  }
  const std::size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const bool has_arg = colon != std::string::npos;
  const std::string arg = has_arg ? spec.substr(colon + 1) : std::string();

  FabricSpec out;
  if (name == "ocs") {
    out.kind = FabricKind::kOcs;
    if (has_arg && !parse_planes(arg, 64, &out.planes)) {
      fail(error, "ocs fabric: plane count must be an integer in [1, 64], "
                  "got '" + arg + "'");
      return std::nullopt;
    }
    return out;
  }
  if (name == "rotor") {
    out.kind = FabricKind::kRotor;
    if (has_arg && !parse_period(arg, &out.rotor_period)) {
      fail(error, "rotor fabric: period must be a positive duration "
                  "(e.g. 100ms or 0.1s), got '" + arg + "'");
      return std::nullopt;
    }
    return out;
  }
  if (name == "mesh") {
    if (has_arg) {
      fail(error, "mesh fabric takes no parameter, got '" + arg + "'");
      return std::nullopt;
    }
    out.kind = FabricKind::kMesh;
    return out;
  }
  fail(error, "unknown fabric '" + name +
                  "' (expected ocs[:K], rotor[:PERIOD], or mesh)");
  return std::nullopt;
}

std::string FabricSpec::to_spec() const {
  switch (kind) {
    case FabricKind::kOcs:
      return "ocs:" + std::to_string(planes);
    case FabricKind::kRotor: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "rotor:%gs", rotor_period.sec());
      return buf;
    }
    case FabricKind::kMesh:
      return "mesh";
  }
  return "?";
}

}  // namespace cosched
