#include "robust/record_log.h"

#include <cstdlib>
#include <filesystem>
#include <string_view>

#include "common/string_util.h"

namespace secreta {

namespace {

// Reads one '\n'-terminated line and advances `*pos` past it. False at end
// of file and for a last line missing its newline: that line is torn.
bool ReadLine(std::istream& in, std::string* line, uint64_t* pos) {
  if (!std::getline(in, *line) || in.eof()) return false;
  *pos += line->size() + 1;
  return true;
}

// Folds one line and its newline into a record's running FNV-1a; the empty
// string's hash is the offset basis a record starts from.
uint64_t HashLine(std::string_view line, uint64_t hash = Fnv1a64("")) {
  return Fnv1a64("\n", Fnv1a64(line, hash));
}

// Reads `n` body lines into the running `*hash`, handing each to `on_line`
// when given. False on a torn line or one `on_line` rejects.
bool ReadBodyLines(std::istream& in, size_t n, uint64_t* hash, uint64_t* pos,
                   const std::function<bool(const std::string&)>& on_line) {
  std::string line;
  for (size_t i = 0; i < n; ++i) {
    if (!ReadLine(in, &line, pos)) return false;
    *hash = HashLine(line, *hash);
    if (on_line && !on_line(line)) return false;
  }
  return true;
}

std::string CommitLine(const std::string& id, uint64_t hash) {
  return "done " + id + ' ' + EncodeU64Hex(hash);
}

}  // namespace

Result<std::unique_ptr<RecordLog>> RecordLog::Open(
    const std::string& path, const RecordLogFormat& format,
    const std::vector<uint64_t>& pins, const OnRecord& on_record) {
  std::string header = StrFormat("secreta-checkpoint\tv2\t%s", format.kind);
  for (uint64_t pin : pins) header += '\t' + EncodeU64Hex(pin);
  // One past the last committed record; 0 while the file has no header.
  uint64_t end = 0;
  {
    std::ifstream in(path, std::ios::binary);
    std::string line;
    if (in && std::getline(in, line)) {
      if (line != header || in.eof()) {
        return Status::FailedPrecondition(StrFormat(
            "%s is not a v2 secreta %s checkpoint of these inputs (header "
            "\"%s\", expected \"%s\"); delete it to start over",
            path.c_str(), format.kind, line.c_str(), header.c_str()));
      }
      end = line.size() + 1;
      while (true) {
        uint64_t pos = end;
        if (!ReadLine(in, &line, &pos)) break;
        std::vector<std::string> head = Split(line, '\t');
        uint64_t body_lines = 0;
        if (head.size() < 3 || head[0] != format.tag ||
            !DecodeU64(head[1], &body_lines)) {
          break;
        }
        uint64_t hash = HashLine(line);
        if (!ReadBodyLines(in, body_lines, &hash, &pos, nullptr) ||
            !ReadLine(in, &line, &pos) || line != CommitLine(head[2], hash)) {
          break;
        }
        head.erase(head.begin(), head.begin() + 2);
        if (!on_record(head, RecordRef{end, body_lines, hash})) {
          return Status::FailedPrecondition(StrFormat(
              "checkpoint %s: committed record at offset %llu does not "
              "decode; delete it to start over",
              path.c_str(), static_cast<unsigned long long>(end)));
        }
        end = pos;
      }
    }
  }
  // Once the header matched, cut whatever follows the last committed record
  // (a torn append) so new records land where the next Open reads them.
  std::error_code error;
  if (end > 0) std::filesystem::resize_file(path, end, error);
  if (error) {
    return Status::IOError("cannot cut the torn tail of checkpoint " + path +
                           ": " + error.message());
  }
  std::unique_ptr<RecordLog> log(
      new RecordLog(path, format, end > 0 ? end : header.size() + 1));
  MutexLock lock(log->mutex_);
  log->out_.open(path, std::ios::binary | std::ios::app);
  if (end == 0) log->out_ << header << '\n' << std::flush;
  if (!log->out_) {
    return Status::IOError("cannot open checkpoint for append: " + path);
  }
  return log;
}

Result<RecordRef> RecordLog::Append(const std::vector<std::string>& fields,
                                    size_t body_lines,
                                    const BodyLine& body_line) {
  if (fields.empty()) {
    return Status::InvalidArgument("checkpoint record without an id");
  }
  std::string line = std::string(format_.tag) + '\t' +
                     std::to_string(body_lines);
  for (const std::string& field : fields) {
    if (field.find_first_of("\t\n") != std::string::npos) {
      return Status::InvalidArgument(
          "checkpoint head fields must be tab- and newline-free");
    }
    line += '\t' + field;
  }
  MutexLock lock(mutex_);
  RecordRef ref{end_, body_lines, Fnv1a64("")};
  uint64_t end = end_;
  std::ostream& out = out_;
  auto write = [&](const std::string& text) {
    out << text << '\n';
    ref.commit = HashLine(text, ref.commit);
    end += text.size() + 1;
  };
  write(line);
  for (size_t i = 0; i < body_lines; ++i) {
    line.clear();
    body_line(i, &line);
    if (line.find('\n') != std::string::npos) {
      out.setstate(std::ios::failbit);  // the record stays uncommitted
      return Status::InvalidArgument(
          "checkpoint body lines must be newline-free: " + path_);
    }
    write(line);
  }
  line = CommitLine(fields[0], ref.commit);
  out << line << '\n' << std::flush;
  if (!out) {
    return Status::IOError("checkpoint append failed: " + path_);
  }
  end_ = end + line.size() + 1;
  return ref;
}

Status RecordLog::ReadBody(
    const RecordRef& ref,
    const std::function<bool(const std::string&)>& on_line) const {
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot reopen checkpoint: " + path_);
  }
  in.seekg(static_cast<std::streamoff>(ref.offset));
  std::string head;
  uint64_t pos = ref.offset;
  bool ok = ReadLine(in, &head, &pos);
  uint64_t hash = HashLine(head);
  if (!ok || !ReadBodyLines(in, ref.body_lines, &hash, &pos, on_line) ||
      hash != ref.commit) {
    return Status::IOError(StrFormat(
        "checkpoint %s: record at offset %llu changed since it was written",
        path_.c_str(), static_cast<unsigned long long>(ref.offset)));
  }
  return Status::OK();
}

std::string EncodeU64Hex(uint64_t value) {
  return StrFormat("%016llx", static_cast<unsigned long long>(value));
}

bool DecodeU64(const std::string& field, uint64_t* out, int base) {
  char* end = nullptr;
  *out = std::strtoull(field.c_str(), &end, base);
  return !field.empty() && *end == '\0';
}

std::string EncodeDouble(double value) { return StrFormat("%a", value); }

bool DecodeDouble(const std::string& field, double* out) {
  char* end = nullptr;
  *out = std::strtod(field.c_str(), &end);
  return !field.empty() && *end == '\0';
}

}  // namespace secreta
