#include "hdlts/util/config.hpp"

#include <cerrno>
#include <cstdlib>

#include "hdlts/util/error.hpp"

namespace hdlts::util {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\n' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\n' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

[[noreturn]] void bad_value(std::string_view key, const std::string& value,
                            const char* expected) {
  throw InvalidArgument("config key '" + std::string(key) + "': expected " +
                        expected + ", got '" + value + "'");
}

}  // namespace

Config::Config(std::string_view text) {
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string_view segment =
        trim(text.substr(pos, comma == std::string_view::npos
                                  ? std::string_view::npos
                                  : comma - pos));
    pos = comma == std::string_view::npos ? text.size() + 1 : comma + 1;
    if (segment.empty()) continue;
    const std::size_t eq = segment.find('=');
    if (eq == std::string_view::npos) {
      throw InvalidArgument("config segment '" + std::string(segment) +
                            "' has no '='");
    }
    const std::string_view key = trim(segment.substr(0, eq));
    if (key.empty()) {
      throw InvalidArgument("config segment '" + std::string(segment) +
                            "' has an empty key");
    }
    if (find(key) != nullptr) {
      throw InvalidArgument("config key '" + std::string(key) +
                            "' given twice");
    }
    entries_.push_back(Entry{std::string(key),
                             std::string(trim(segment.substr(eq + 1))), false});
  }
}

Config::Entry* Config::find(std::string_view key) {
  for (Entry& e : entries_) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

bool Config::has(std::string_view key) const {
  for (const Entry& e : entries_) {
    if (e.key == key) return true;
  }
  return false;
}

std::string Config::get_string(std::string_view key,
                               std::string_view fallback) {
  Entry* e = find(key);
  if (e == nullptr) return std::string(fallback);
  e->used = true;
  return e->value;
}

std::int64_t Config::get_int(std::string_view key, std::int64_t fallback) {
  Entry* e = find(key);
  if (e == nullptr) return fallback;
  e->used = true;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(e->value.c_str(), &end, 10);
  if (e->value.empty() || end != e->value.c_str() + e->value.size() ||
      errno == ERANGE) {
    bad_value(key, e->value, "an integer");
  }
  return v;
}

double Config::get_double(std::string_view key, double fallback) {
  Entry* e = find(key);
  if (e == nullptr) return fallback;
  e->used = true;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(e->value.c_str(), &end);
  if (e->value.empty() || end != e->value.c_str() + e->value.size() ||
      errno == ERANGE) {
    bad_value(key, e->value, "a number");
  }
  return v;
}

bool Config::get_bool(std::string_view key, bool fallback) {
  Entry* e = find(key);
  if (e == nullptr) return fallback;
  e->used = true;
  if (e->value == "1" || e->value == "true") return true;
  if (e->value == "0" || e->value == "false") return false;
  bad_value(key, e->value, "0/1/true/false");
}

std::vector<std::string> Config::get_list(std::string_view key,
                                          std::string_view fallback,
                                          char sep) {
  const std::string joined = get_string(key, fallback);
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= joined.size()) {
    const std::size_t next = joined.find(sep, pos);
    const std::string_view item =
        trim(std::string_view(joined).substr(
            pos, next == std::string::npos ? std::string::npos : next - pos));
    pos = next == std::string::npos ? joined.size() + 1 : next + 1;
    if (!item.empty()) out.emplace_back(item);
  }
  return out;
}

std::vector<std::string> Config::unused_keys() const {
  std::vector<std::string> out;
  for (const Entry& e : entries_) {
    if (!e.used) out.push_back(e.key);
  }
  return out;
}

}  // namespace hdlts::util
