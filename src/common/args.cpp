#include "common/args.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace mlvc {

void ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw InvalidArgument("unexpected positional argument '" + arg +
                            "'\n" + usage());
    }
    arg = arg.substr(2);
    std::string name, value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      const bool is_declared_flag =
          std::any_of(declared_.begin(), declared_.end(), [&](const auto& d) {
            return d.name == name && d.def == "false";
          });
      if (is_declared_flag) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        throw InvalidArgument("option --" + name + " needs a value\n" +
                              usage());
      }
    }
    const bool known =
        std::any_of(declared_.begin(), declared_.end(),
                    [&](const auto& d) { return d.name == name; });
    if (!known && name != "help") {
      throw InvalidArgument("unknown option --" + name + "\n" + usage());
    }
    values_[name] = value;
  }
  if (values_.count("help") != 0) {
    throw InvalidArgument(usage());
  }
  for (const auto& d : declared_) {
    if (d.def.empty() && values_.count(d.name) == 0) {
      throw InvalidArgument("missing required option --" + d.name + "\n" +
                            usage());
    }
  }
}

std::string ArgParser::get_string(const std::string& name) const {
  const auto it = values_.find(name);
  MLVC_CHECK_MSG(it != values_.end(), "required option --" << name);
  return it->second;
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    throw InvalidArgument("option --" + name + " expects an integer, got '" +
                          it->second + "'");
  }
}

std::uint64_t ArgParser::get_bytes(const std::string& name,
                                   std::uint64_t def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : parse_bytes(it->second);
}

double ArgParser::get_double(const std::string& name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw InvalidArgument("option --" + name + " expects a number, got '" +
                          it->second + "'");
  }
}

bool ArgParser::get_flag(const std::string& name) const {
  const auto it = values_.find(name);
  return it != values_.end() && it->second != "false" && it->second != "0";
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& d : declared_) {
    os << "  --" << d.name;
    if (d.def.empty()) {
      os << " <required>";
    } else if (d.def != "false") {
      os << " (default: " << d.def << ")";
    }
    os << "\n      " << d.help << "\n";
  }
  return os.str();
}

std::uint64_t parse_bytes(const std::string& text) {
  const auto bad = [&] {
    return InvalidArgument("bad byte size '" + text +
                           "' (digits, then an optional K/M/G)");
  };
  // stoull alone would also take a sign, leading blanks or trailing junk.
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    throw bad();
  }
  std::size_t idx = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &idx);
  } catch (const std::exception&) {
    throw bad();
  }
  if (idx == text.size()) return value;
  const char suffix = static_cast<char>(std::toupper(text[idx]));
  const unsigned shift =
      suffix == 'K' ? 10 : suffix == 'M' ? 20 : suffix == 'G' ? 30 : 0;
  if (shift == 0 || idx + 1 != text.size() || value >> (64 - shift) != 0) {
    throw bad();
  }
  return value << shift;
}

}  // namespace mlvc
