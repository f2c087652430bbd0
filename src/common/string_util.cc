#include "common/string_util.h"

#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace lofkit {

std::vector<std::string> Split(std::string_view input, char sep) {
  std::vector<std::string> fields;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      fields.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

Result<double> ParseDouble(std::string_view input) {
  std::string_view trimmed = Trim(input);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty string is not a number");
  }
  // Fast path. std::from_chars and strtod both round correctly, so where
  // from_chars consumes the whole field, strtod would parse the same
  // decimal to the same bits. Its result is kept only when it is a normal
  // double above the smallest one: strtod flags a decimal that rounds up
  // to DBL_MIN as an underflow. Everything else (zero, subnormals,
  // overflow, inf and nan, hex floats, a leading '+', trailing bytes, any
  // error) takes the strtod path below, which defines the accepted
  // grammar and every message.
  double fast = 0.0;
  const char* const last = trimmed.data() + trimmed.size();
  const std::from_chars_result parsed =
      std::from_chars(trimmed.data(), last, fast);
  if (parsed.ec == std::errc() && parsed.ptr == last && std::isnormal(fast) &&
      std::fabs(fast) != DBL_MIN) {
    return fast;
  }
  std::string buf(trimmed);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("trailing garbage in number: '" + buf + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("number out of double range: '" + buf + "'");
  }
  return value;
}

Result<uint64_t> ParseU64(std::string_view input) {
  std::string_view trimmed = Trim(input);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty string is not an integer");
  }
  if (trimmed[0] == '-') {
    return Status::InvalidArgument("negative value for unsigned field: '" +
                                   std::string(trimmed) + "'");
  }
  std::string buf(trimmed);
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("trailing garbage in integer: '" + buf + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: '" + buf + "'");
  }
  return static_cast<uint64_t>(value);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string JsonEscape(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  for (char c : input) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned>(
                                          static_cast<unsigned char>(c)));
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace lofkit
