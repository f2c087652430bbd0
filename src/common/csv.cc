#include "common/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <fstream>
#include <string_view>

#include "common/fail_point.h"
#include "common/string_util.h"

namespace lofkit {

namespace {

// Pops the next separator-delimited field off the front of `rest`.
std::string_view NextField(std::string_view& rest, char separator) {
  const size_t end = std::min(rest.find(separator), rest.size());
  const std::string_view field = rest.substr(0, end);
  rest.remove_prefix(std::min(end + 1, rest.size()));
  return field;
}

// The one CSV scanner: walks `text` line by line in place, parsing every
// field straight into `parsed.values`. The first bad line wins, and within
// a line the checks run in this order: the length cap, an embedded NUL,
// the field count, then each number from left to right.
Result<CsvValues> ParseCsvValues(std::string_view text,
                                 const CsvReadOptions& options) {
  CsvValues parsed;
  bool header_consumed = !options.has_header;
  size_t line_number = 0;
  while (!text.empty()) {
    const size_t newline = text.find('\n');
    const std::string_view line = text.substr(0, newline);
    text.remove_prefix(newline == std::string_view::npos ? text.size()
                                                         : newline + 1);
    ++line_number;
    if (options.max_line_bytes != 0 && line.size() > options.max_line_bytes) {
      return Status::InvalidArgument(
          StrFormat("line %zu is %zu bytes long, limit is %zu "
                    "(CsvReadOptions::max_line_bytes)",
                    line_number, line.size(), options.max_line_bytes));
    }
    if (line.find('\0') != std::string_view::npos) {
      // An embedded NUL would silently truncate the field inside the
      // C-string number parser; reject the whole line instead.
      return Status::InvalidArgument(
          StrFormat("line %zu contains an embedded NUL byte", line_number));
    }
    std::string_view rest = Trim(line);
    if (rest.empty()) continue;
    if (options.allow_comments && rest.front() == '#') continue;
    const size_t fields =
        1 + static_cast<size_t>(
                std::count(rest.begin(), rest.end(), options.separator));
    if (!header_consumed) {
      for (size_t f = 0; f < fields; ++f) {
        parsed.header.emplace_back(Trim(NextField(rest, options.separator)));
      }
      parsed.columns = fields;
      header_consumed = true;
      continue;
    }
    if (parsed.columns == 0) {
      parsed.columns = fields;
    } else if (fields != parsed.columns) {
      return Status::InvalidArgument(
          StrFormat("line %zu has %zu fields, expected %zu", line_number,
                    fields, parsed.columns));
    }
    for (size_t f = 0; f < fields; ++f) {
      Result<double> value = ParseDouble(NextField(rest, options.separator));
      if (!value.ok()) {
        return Status::InvalidArgument(
            StrFormat("line %zu: %s", line_number,
                      value.status().message().c_str()));
      }
      parsed.values.push_back(*value);
    }
  }
  return parsed;
}

// Reads the whole file into one string. fstat sizes the buffer, so a
// regular file takes one read plus the one that sees end of file; a pipe
// reports size 0 and is read on, doubling the buffer, until end of file.
Result<std::string> ReadFileText(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open file: " + path);
  }
  struct stat info {};
  const size_t size_hint = ::fstat(fd, &info) == 0 && info.st_size > 0
                               ? static_cast<size_t>(info.st_size)
                               : 0;
  std::string text(size_hint + 1, '\0');
  size_t used = 0;
  for (;;) {
    if (used == text.size()) text.resize(2 * text.size());
    const ssize_t got = ::read(fd, text.data() + used, text.size() - used);
    if (got > 0) {
      used += static_cast<size_t>(got);
    } else if (got == 0) {
      break;
    } else if (errno != EINTR) {
      ::close(fd);
      return Status::IoError("read failure on file: " + path);
    }
  }
  ::close(fd);
  text.resize(used);
  return text;
}

CsvTable ToTable(CsvValues parsed) {
  CsvTable table;
  table.header = std::move(parsed.header);
  table.rows.reserve(parsed.num_rows());
  for (size_t r = 0; r < parsed.num_rows(); ++r) {
    const double* row = parsed.values.data() + r * parsed.columns;
    table.rows.emplace_back(row, row + parsed.columns);
  }
  return table;
}

}  // namespace

Result<CsvTable> ParseCsv(const std::string& text,
                          const CsvReadOptions& options) {
  LOFKIT_ASSIGN_OR_RETURN(CsvValues parsed, ParseCsvValues(text, options));
  return ToTable(std::move(parsed));
}

Result<CsvValues> ReadCsvValues(const std::string& path,
                                const CsvReadOptions& options) {
  LOFKIT_FAIL_POINT("csv.read");
  LOFKIT_ASSIGN_OR_RETURN(std::string text, ReadFileText(path));
  return ParseCsvValues(text, options);
}

Result<CsvTable> ReadCsvFile(const std::string& path,
                             const CsvReadOptions& options) {
  LOFKIT_ASSIGN_OR_RETURN(CsvValues parsed, ReadCsvValues(path, options));
  return ToTable(std::move(parsed));
}

std::string WriteCsv(const CsvTable& table, char separator) {
  // std::to_chars in chars_format::general at precision 17 is specified as
  // printf's "%.17g", which prints at most 24 bytes
  // ("-1.2345678901234567e-308"); with its separator or newline a value
  // takes at most 25, so the buffer is reserved once.
  constexpr size_t kMaxValueBytes = 25;
  size_t bytes = 0;
  for (const std::string& name : table.header) bytes += name.size() + 1;
  for (const auto& row : table.rows) bytes += kMaxValueBytes * row.size() + 1;
  std::string out;
  out.reserve(bytes);
  if (!table.header.empty()) {
    for (size_t i = 0; i < table.header.size(); ++i) {
      if (i > 0) out.push_back(separator);
      out += table.header[i];
    }
    out.push_back('\n');
  }
  char buf[kMaxValueBytes];
  for (const auto& row : table.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(separator);
      const std::to_chars_result printed = std::to_chars(
          buf, buf + sizeof(buf), row[i], std::chars_format::general, 17);
      out.append(buf, printed.ptr);
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const std::string& path, const CsvTable& table,
                    char separator) {
  LOFKIT_FAIL_POINT("csv.write");
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::IoError("cannot open file for writing: " + path);
  }
  std::string text = WriteCsv(table, separator);
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!file) {
    return Status::IoError("write failure on file: " + path);
  }
  return Status::OK();
}

}  // namespace lofkit
