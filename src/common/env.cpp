#include "common/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace mlvc::env {

void reject(const Var& var, const std::string& text) {
  std::string name = var.name;
  if (*var.flag != '\0') name += " (--" + std::string(var.flag) + ")";
  throw InvalidArgument(name + ": bad value '" + text + "' (want " +
                        var.accepted + ")");
}

std::optional<std::string> get_string(const Var& var) {
  const char* v = std::getenv(var.name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

std::optional<std::uint64_t> detail::get_unsigned(const Var& var,
                                                  std::uint64_t max) {
  const auto text = get_string(var);
  if (!text) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(text->c_str(), &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text->front())) ||
      *end != '\0' || errno == ERANGE || v < var.min || v > max) {
    reject(var, *text);
  }
  return v;
}

std::optional<std::uint64_t> get_bytes(const Var& var) {
  const auto text = get_string(var);
  if (!text) return std::nullopt;
  std::uint64_t v = 0;
  try {
    v = parse_bytes(*text);
  } catch (const InvalidArgument&) {
    reject(var, *text);
  }
  if (v < var.min) reject(var, *text);
  return v;
}

std::optional<double> get_double(const Var& var) {
  const auto text = get_string(var);
  if (!text) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text->c_str(), &end);
  if (*end != '\0' || !std::isfinite(v)) reject(var, *text);
  return v;
}

std::optional<bool> get_bool(const Var& var) {
  const auto text = get_string(var);
  if (!text) return std::nullopt;
  if (*text != "0" && *text != "1") reject(var, *text);
  return *text == "1";
}

void set(const Var& var, const char* value) {
  if (value != nullptr) {
    ::setenv(var.name, value, /*overwrite=*/1);
  } else {
    ::unsetenv(var.name);
  }
}

void pin_flags(const ArgParser& args) {
  for (const Var* var : kVars) {
    if (*var->flag != '\0' && args.has(var->flag)) {
      set(*var, args.get_string(var->flag).c_str());
    }
  }
}

}  // namespace mlvc::env
